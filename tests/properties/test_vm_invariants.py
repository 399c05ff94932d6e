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
        assert len(cache._hash) == len(named)
        _assert_index_matches_frames(cache, vnodes, offset)


_block = st.integers(0, 11)
_run = st.tuples(st.integers(0, 8), st.integers(1, 4))  # first block, length
meta_op = st.one_of(
    *(st.tuples(st.just(name), _block)
      for name in ("read", "dirty", "sync_one", "getblk", "bawrite", "peek",
                   "two_readers")),
    *(st.tuples(st.just(name), _run) for name in ("mbread", "mbwrite")),
    st.tuples(st.just("flush")),
)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(meta_op, min_size=1, max_size=30))
def test_metacache_matches_disk_model(ops):
    """The buffer cache behaves like a write-back dict over the disk, with
    an LRU of ``capacity`` blocks in front: every buffer handed out holds
    the latest content of its block, exactly the blocks a reference LRU
    holds are resident after every operation (seen through ``peek``, which
    therefore must not disturb the order), no operation reads the disk more
    than the reference says, and after a flush the disk holds the latest
    content for every block."""
    from collections import OrderedDict

    from repro.cpu import CostTable, Cpu
    from repro.disk import DiskDriver, DiskGeometry, RotationalDisk
    from repro.ufs.metacache import MetaCache

    engine = Engine()
    geom = DiskGeometry.uniform(cylinders=40, heads=2, sectors_per_track=16)
    disk = RotationalDisk(engine, geom)
    cpu = Cpu(engine, CostTable.free())
    cache = MetaCache(engine, DiskDriver(engine, disk, cpu=cpu), cpu,
                      bsize=8192, frag_sectors=2, capacity=4)
    addrs = [8 + k * 8 for k in range(12)]  # block aligned, 8 frags apart
    model: dict[int, bytes] = {}  # block addr -> latest content
    resident: "OrderedDict[int, None]" = OrderedDict()  # the reference LRU
    counter = [0]

    def touch(addr):
        """The reference's bread/getblk: most recently used, evicting the
        least recently used block when a new one needs the room."""
        if addr not in resident:
            while len(resident) >= cache.capacity:
                resident.popitem(last=False)
        resident[addr] = None
        resident.move_to_end(addr)

    def touch_run(run):
        """The reference's mbread: cached members first, then everything
        uncached from the first missing block to the last, in order."""
        missing = [a for a in run if a not in resident]
        for addr in [a for a in run if a in resident]:
            touch(addr)
        if missing:
            for addr in range(missing[0], missing[-1] + 8, 8):
                if addr not in resident:
                    touch(addr)
        for addr in run:
            touch(addr)
        return bool(missing)

    def fresh():
        counter[0] += 1
        return bytes([counter[0] % 251 + 1]) * 8192

    def overwrite(meta):
        meta.data[:] = model[meta.frag_addr] = fresh()

    def latest(meta):
        assert bytes(meta.data) == model.get(meta.frag_addr, bytes(8192)), (
            f"stale buffer for {meta.frag_addr}")
        return meta

    def reader(addr, got):
        got.append((yield from cache.bread(addr)))

    def run_ops():
        for op in ops:
            kind = op[0]
            reads = disk.stats["reads"]
            expect_reads = 0
            if kind in ("mbread", "mbwrite"):
                run = addrs[op[1][0]:op[1][0] + op[1][1]]
                expect_reads = int(touch_run(run))
                metas = yield from cache.mbread(run)
                assert [latest(m).frag_addr for m in metas] == run
                if kind == "mbwrite":
                    for meta in metas:
                        overwrite(meta)
                    yield from cache.mbwrite(metas)
            elif kind == "flush":
                yield from cache.flush()
                assert not any(m.dirty for m in cache.buffers())
            elif kind == "peek":
                meta = cache.peek(addrs[op[1]])
                assert (meta is not None) == (addrs[op[1]] in resident)
            elif kind == "two_readers":
                addr, got = addrs[op[1]], []
                expect_reads = int(addr not in resident)
                touch(addr)
                pair = [engine.process(reader(addr, got)) for _ in range(2)]
                yield pair[0]
                yield pair[1]
                assert latest(got[0]) is got[1]
            elif kind == "getblk":
                # No read even on a miss: the caller overwrites it all.
                addr = addrs[op[1]]
                meta = yield from cache.getblk(addr)
                assert addr in resident or not any(meta.data)
                touch(addr)
                overwrite(meta)
                cache.bdwrite(meta)
            else:
                addr = addrs[op[1]]
                expect_reads = int(addr not in resident)
                touch(addr)
                meta = latest((yield from cache.bread(addr)))
                if kind == "dirty":
                    overwrite(meta)
                    cache.bdwrite(meta)
                elif kind == "bawrite":
                    overwrite(meta)
                    yield from cache.bawrite(meta)
                elif kind == "sync_one":
                    yield from cache.bwrite(meta)
            assert disk.stats["reads"] - reads == expect_reads, op
            cached = [a for a in addrs if cache.peek(a) is not None]
            assert sorted(cached) == sorted(resident), op
            for addr in cached:
                latest(cache.peek(addr))

        yield from cache.flush()

    engine.run_process(run_ops())
    engine.run()  # let the asynchronous writes land
    # After the final flush the disk agrees with the model everywhere.
    for addr, content in model.items():
        assert disk.store.read(addr * 2, 16) == content
