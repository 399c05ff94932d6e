"""Tests for the metadata buffer cache."""

import pytest

from repro.cpu import CostTable, Cpu
from repro.disk import DiskDriver, DiskGeometry, RotationalDisk
from repro.sim import Engine
from repro.ufs.metacache import MetaCache


@pytest.fixture
def stack():
    engine = Engine()
    geom = DiskGeometry.uniform(cylinders=50, heads=2, sectors_per_track=16)
    disk = RotationalDisk(engine, geom)
    cpu = Cpu(engine, CostTable.free())
    driver = DiskDriver(engine, disk, cpu=cpu)
    cache = MetaCache(engine, driver, cpu, bsize=8192, frag_sectors=2,
                      capacity=4)
    return engine, disk, cache


def test_bread_miss_then_hit(stack):
    engine, disk, cache = stack
    disk.store.write(16, b"\xab" * 8192)  # frag addr 8 -> sector 16

    def work():
        meta = yield from cache.bread(8)
        assert bytes(meta.data) == b"\xab" * 8192
        again = yield from cache.bread(8)
        return meta is again

    assert engine.run_process(work())
    assert cache.stats["misses"] == 1
    assert cache.stats["hits"] == 1


def test_delayed_write_flushes_on_flush(stack):
    engine, disk, cache = stack

    def work():
        meta = yield from cache.bread(8)
        meta.data[:3] = b"xyz"
        cache.bdwrite(meta)
        assert sum(m.dirty for m in cache.buffers()) == 1
        flushed = yield from cache.flush()
        return flushed

    assert engine.run_process(work()) == 1
    assert disk.store.read(16, 1)[:3] == b"xyz"
    assert not any(m.dirty for m in cache.buffers())


def test_sync_write_is_on_disk_immediately(stack):
    engine, disk, cache = stack

    def work():
        meta = yield from cache.bread(8)
        meta.data[:3] = b"abc"
        yield from cache.bwrite(meta)

    engine.run_process(work())
    assert disk.store.read(16, 1)[:3] == b"abc"


def test_eviction_writes_back_dirty_victim(stack):
    engine, disk, cache = stack

    def work():
        meta = yield from cache.bread(8)
        meta.data[:3] = b"old"
        cache.bdwrite(meta)
        # Capacity 4: read four more blocks to evict frag 8.
        for addr in (16, 24, 32, 40):
            yield from cache.bread(addr)

    engine.run_process(work())
    assert cache.stats["eviction_writebacks"] == 1
    assert disk.store.read(16, 1)[:3] == b"old"


def test_install_new_skips_read(stack):
    engine, disk, cache = stack

    def work():
        meta = yield from cache.install_new(8, b"\x01" * 8192)
        cache.bdwrite(meta)
        yield from cache.flush()

    engine.run_process(work())
    assert disk.stats["reads"] == 0
    assert disk.store.read(16, 1) == b"\x01" * 512


def test_install_new_validation(stack):
    engine, _, cache = stack

    def work():
        yield from cache.install_new(8, b"short")

    with pytest.raises(ValueError):
        engine.run_process(work())

    def work2():
        yield from cache.bread(8)
        yield from cache.install_new(8)

    with pytest.raises(ValueError):
        engine.run_process(work2())


def test_drop_discards_dirty_data(stack):
    engine, disk, cache = stack

    def work():
        meta = yield from cache.bread(8)
        meta.data[:3] = b"bad"
        cache.bdwrite(meta)
        cache.drop(8)
        yield from cache.flush()

    engine.run_process(work())
    assert disk.store.read(16, 1)[:3] == b"\x00\x00\x00"


def test_concurrent_bread_single_io(stack):
    engine, disk, cache = stack
    results = []

    def reader(tag):
        meta = yield from cache.bread(8)
        results.append((tag, meta))

    engine.process(reader("a"))
    engine.process(reader("b"))
    engine.run()
    assert len(results) == 2
    assert results[0][1] is results[1][1]
    assert disk.stats["reads"] == 1
    assert cache.stats["inflight_waits"] >= 1


def test_bdwrite_requires_cached_buffer(stack):
    engine, _, cache = stack
    from repro.ufs.metacache import MetaBuf

    stray = MetaBuf(99, bytearray(8192))
    with pytest.raises(ValueError):
        cache.bdwrite(stray)


def test_capacity_validation(stack):
    engine, disk, cache = stack
    with pytest.raises(ValueError):
        MetaCache(engine, None, None, 8192, 2, capacity=0)


def test_peek_sees_without_touching(stack):
    engine, disk, cache = stack

    def work():
        for addr in (8, 16, 24, 32):  # full: 8 is the least recently used
            yield from cache.bread(addr)
        assert cache.peek(8) is (yield from cache.bread(8))
        assert cache.peek(16).frag_addr == 16  # next out, and still is:
        yield from cache.bread(40)

    engine.run_process(work())
    assert cache.peek(16) is None and cache.peek(99) is None
    assert cache.peek(8) is not None
    assert disk.stats["reads"] == 5


def test_getblk_skips_the_read_and_returns_the_one_buffer(stack):
    engine, disk, cache = stack

    def work():
        meta = yield from cache.getblk(8)
        assert not any(meta.data)
        meta.data[:] = b"\x07" * 8192
        cache.bdwrite(meta)
        assert (yield from cache.getblk(8)) is meta
        assert (yield from cache.bread(8)) is meta
        yield from cache.flush()

    engine.run_process(work())
    assert disk.stats["reads"] == 0
    assert disk.store.read(16, 16) == b"\x07" * 8192


def test_getblk_waits_for_a_read_in_flight(stack):
    """getblk racing bread: one buffer, so neither side's update is lost."""
    engine, disk, cache = stack
    got = {}

    def reader():
        got["bread"] = yield from cache.bread(8)

    def maker():
        got["getblk"] = yield from cache.getblk(8)

    engine.process(reader())
    engine.process(maker())
    engine.run()
    assert got["bread"] is got["getblk"] is cache.peek(8)


def test_mbread_fetches_the_uncached_span_in_one_request(stack):
    engine, disk, cache = stack
    for k in range(4):
        disk.store.write((8 + 8 * k) * 2, bytes([k + 1]) * 8192)

    def work():
        middle = yield from cache.bread(16)
        metas = yield from cache.mbread([8, 16, 24, 32])
        assert metas[1] is middle
        return [bytes(m.data[:1]) for m in metas]

    assert engine.run_process(work()) == [b"\x01", b"\x02", b"\x03", b"\x04"]
    assert disk.stats["reads"] == 2  # block 16, then 8..32 as one request
    assert cache.stats["mbreads"] == 1


def test_multi_block_runs_are_validated(stack):
    engine, _, cache = stack
    for bad in ([], [8, 24], [8, 9], [8, 16, 24, 32, 40]):  # last: > capacity
        with pytest.raises(ValueError):
            engine.run_process(cache.mbread(bad))
    engine.run_process(cache.mbwrite([]))  # an empty run is a no-op


def test_async_write_lands_before_the_block_is_written_again(stack):
    """Found by the property model: an mbwrite still queued at the disk and
    a later write of one of its blocks are two requests the elevator may
    reorder; the older content must not win."""
    engine, disk, cache = stack

    def work():
        yield from cache.bread(56)
        metas = yield from cache.mbread([32, 40, 48, 56])
        for meta in metas:
            meta.data[:] = b"\x01" * 8192
        yield from cache.mbwrite(metas)
        meta = yield from cache.bread(56)
        meta.data[:] = b"\x02" * 8192
        cache.bdwrite(meta)
        yield from cache.flush()

    engine.run_process(work())
    engine.run()
    assert disk.store.read(56 * 2, 16) == b"\x02" * 8192
    assert disk.store.read(48 * 2, 16) == b"\x01" * 8192
