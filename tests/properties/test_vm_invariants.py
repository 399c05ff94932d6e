"""Property tests on the page cache and the metadata buffer cache."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim import Engine
from repro.units import KB
from repro.vm import PageCache


class _StubVnode:
    _next = [1000]

    def __init__(self):
        self.vnode_id = self._next[0]
        self._next[0] += 1


_vm_slot = st.tuples(st.integers(0, 2), st.integers(0, 15))
vm_op = st.one_of(*(
    st.tuples(st.just(name), _vm_slot)
    for name in ("alloc", "lookup", "dirty", "free", "free_front", "destroy")
))


def _assert_index_matches_frames(cache, vnodes, offset):
    """The per-vnode index answers exactly what a scan of every frame
    would: whole-vnode, dirty-only, all-dirty and windowed queries."""
    psize = cache.page_size
    for vnode in vnodes:
        scan = sorted((p for p in cache.frames if p.vnode is vnode),
                      key=lambda p: p.offset)
        assert cache.vnode_pages(vnode) == scan
        assert cache.dirty_pages(vnode) == [p for p in scan if p.dirty]
        for start, end in ((offset, offset + psize),
                           (offset - 100, offset + 4 * psize),
                           (0, 16 * psize), (offset, offset)):
            assert cache.vnode_range(vnode, start, end) == [
                p for p in scan if start <= p.offset < end]
    assert cache.dirty_pages() == sorted(
        (p for p in cache.frames if p.named and p.dirty),
        key=lambda p: (p.vnode.vnode_id, p.offset))
    assert set(cache._vpages) == {p.vnode.vnode_id
                                  for p in cache.frames if p.named}


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(vm_op, min_size=1, max_size=60))
def test_pagecache_frame_conservation(ops):
    """Frames are conserved: every frame is exactly once either free or in
    use; named frames appear in the hash exactly once; lookup never lies;
    and the per-vnode index agrees with a brute-force scan of the frames.

    Three vnodes share eight frames, so allocations steal identities
    across vnodes."""
    engine = Engine()
    cache = PageCache(engine, memory_bytes=8 * 8 * KB, page_size=8 * KB)
    vnodes = [_StubVnode() for _ in range(3)]
    live: dict[tuple[int, int], object] = {}  # (vnode, offset) -> page in use

    for op, (which, slot) in ops:
        vnode = vnodes[which]
        offset = slot * 8 * KB
        key = (which, offset)
        if op == "alloc":
            if key in live or cache.lookup(vnode, offset) is not None:
                # Already cached: reclaim through lookup instead.
                page = cache.lookup(vnode, offset)
                if page is not None and key not in live:
                    live[key] = page
                continue
            page = cache.allocate(vnode, offset)
            if page is not None:
                page.valid = True
                page.unlock()
                live[key] = page
        elif op == "lookup":
            page = cache.lookup(vnode, offset)
            if page is not None:
                assert page.vnode is vnode and page.offset == offset
                live.setdefault(key, page)
        elif op == "dirty":
            if key in live:
                live[key].dirty = True
        elif op in ("free", "free_front"):
            page = live.pop(key, None)
            if page is not None and not page.free:
                page.dirty = False  # "written back"
                cache.free(page, front=(op == "free_front"))
        elif op == "destroy":
            page = live.pop(key, None)
            if page is None:
                page = cache.lookup(vnode, offset)
                if page is None:
                    continue
            cache.destroy(page)

        # Invariants after every step:
        in_use = sum(1 for p in cache.frames if not p.free)
        assert in_use + cache.freemem == cache.total_pages
        named = [p for p in cache.frames if p.named]
        keys = {(p.vnode.vnode_id, p.offset) for p in named}
        assert len(keys) == len(named), "duplicate page identity"
        assert cache.named_pages == len(named)
        _assert_index_matches_frames(cache, vnodes, offset)


meta_op = st.one_of(
    st.tuples(st.just("read"), st.integers(0, 11)),
    st.tuples(st.just("dirty"), st.integers(0, 11)),
    st.tuples(st.just("sync_one"), st.integers(0, 11)),
    st.tuples(st.just("flush")),
)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(meta_op, min_size=1, max_size=30), data=st.data())
def test_metacache_matches_disk_model(ops, data):
    """The metadata cache behaves like a write-back dict over the disk:
    after a flush, the disk holds the latest content for every block."""
    from repro.cpu import CostTable, Cpu
    from repro.disk import DiskDriver, DiskGeometry, RotationalDisk
    from repro.ufs.metacache import MetaCache

    engine = Engine()
    geom = DiskGeometry.uniform(cylinders=40, heads=2, sectors_per_track=16)
    disk = RotationalDisk(engine, geom)
    cpu = Cpu(engine, CostTable.free())
    cache = MetaCache(engine, DiskDriver(engine, disk, cpu=cpu), cpu,
                      bsize=8192, frag_sectors=2, capacity=4)
    model: dict[int, bytes] = {}  # block addr -> latest content
    counter = [0]

    def run_ops():
        for op in ops:
            if op[0] == "read":
                addr = 8 + op[1] * 8
                meta = yield from cache.bread(addr)
                expect = model.get(addr, bytes(8192))
                assert bytes(meta.data) == expect, f"stale read at {addr}"
            elif op[0] == "dirty":
                addr = 8 + op[1] * 8
                meta = yield from cache.bread(addr)
                counter[0] += 1
                content = bytes([counter[0] % 256]) * 8192
                meta.data[:] = content
                cache.bdwrite(meta)
                model[addr] = content
            elif op[0] == "sync_one":
                addr = 8 + op[1] * 8
                meta = yield from cache.bread(addr)
                yield from cache.bwrite(meta)
            else:
                yield from cache.flush()

        yield from cache.flush()

    engine.run_process(run_ops())
    # After the final flush the disk agrees with the model everywhere.
    for addr, content in model.items():
        assert disk.store.read(addr * 2, 16) == content
