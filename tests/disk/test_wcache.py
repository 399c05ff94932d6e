"""Unit tests for the volatile write cache (data plane + the disk's
journal of it)."""

import pytest

from repro.disk import Buf, BufOp, DiskGeometry, RotationalDisk
from repro.disk.store import DiskStore
from repro.disk.wcache import VolatileWriteCache
from repro.errors import MemberDeadError
from repro.faults import FaultPlan
from repro.obs.metrics import MetricsRegistry
from repro.sim import Engine


SS = 512


def wbuf(engine, sector, nsectors=1, fill=0xAA, **kw):
    return Buf(engine, BufOp.WRITE, sector, nsectors,
               data=bytes([fill]) * (nsectors * SS), **kw)


def make_cache(limit_bytes=4 * SS, sectors=64):
    engine = Engine()
    store = DiskStore(sectors, SS)
    return engine, store, VolatileWriteCache(
        MetricsRegistry(engine), "disk.wcache", store, limit_bytes)


def test_limit_must_be_positive():
    store = DiskStore(8, SS)
    with pytest.raises(ValueError):
        VolatileWriteCache(MetricsRegistry(Engine()), "disk.wcache",
                           store, 0)


def test_write_is_volatile_until_destaged():
    engine, store, cache = make_cache()
    cache.write(wbuf(engine, 3, fill=0x11))
    # The store still holds zeroes: completed != durable.
    assert store.read(3, 1) == bytes(SS)
    assert cache.bytes == SS
    entry = cache.destage_head()
    assert entry.sector == 3
    assert store.read(3, 1) == bytes([0x11]) * SS
    assert cache.bytes == 0


def test_accounting_and_over_limit():
    engine, store, cache = make_cache(limit_bytes=2 * SS)
    cache.write(wbuf(engine, 0))
    assert not cache.over_limit
    cache.write(wbuf(engine, 1))
    assert not cache.over_limit  # at the limit, not over it
    cache.write(wbuf(engine, 2))
    assert cache.over_limit
    cache.destage_head()
    assert not cache.over_limit
    assert cache.bytes == 2 * SS


def test_destage_is_fifo():
    engine, store, cache = make_cache()
    for sector, fill in ((5, 0x01), (2, 0x02), (9, 0x03)):
        cache.write(wbuf(engine, sector, fill=fill))
    assert [cache.destage_head().sector for _ in range(3)] == [5, 2, 9]
    assert store.read(2, 1) == bytes([0x02]) * SS


def test_overlay_returns_cached_bytes():
    engine, store, cache = make_cache()
    store.write(4, bytes([0xEE]) * (2 * SS))
    cache.write(wbuf(engine, 5, fill=0x22))
    # A read spanning sectors 4..5 sees durable 4 and cached 5.
    got = cache.overlay(4, 2, store.read(4, 2))
    assert got[:SS] == bytes([0xEE]) * SS
    assert got[SS:] == bytes([0x22]) * SS
    # Disjoint reads are returned untouched (no copy, no stat).
    raw = store.read(0, 2)
    assert cache.overlay(0, 2, raw) is raw


def test_overlay_applies_entries_in_cache_order():
    engine, store, cache = make_cache()
    cache.write(wbuf(engine, 7, fill=0x01))
    cache.write(wbuf(engine, 7, fill=0x02))
    got = cache.overlay(7, 1, store.read(7, 1))
    assert got == bytes([0x02]) * SS  # the newer write wins


def test_drop_all_loses_everything():
    engine, store, cache = make_cache()
    cache.write(wbuf(engine, 1, fill=0x55))
    cache.write(wbuf(engine, 2, fill=0x66))
    lost = cache.drop_all()
    assert lost == 2 * SS
    assert cache.bytes == 0 and not cache.entries
    assert store.read(1, 2) == bytes(2 * SS)  # nothing reached the media


def test_journal_records_every_event_kind():
    """The disk journals what its cache does: a cached write, the FLUSH
    that destages it, a FUA write, and the drop when the drive dies."""
    engine = Engine()
    geom = DiskGeometry.uniform(cylinders=20, heads=2, sectors_per_track=16)
    store = DiskStore(geom.total_sectors, SS)
    metrics = MetricsRegistry(engine)
    disk = RotationalDisk(engine, metrics, "disk.mech", geom, store,
                          write_cache=VolatileWriteCache(
                              metrics, "disk.wcache", store, 4 * SS))
    disk.journal = []

    def service(buf):
        engine.run_process(disk.service(buf))

    service(wbuf(engine, 1, ordered=True))
    service(Buf.flush(engine))
    service(wbuf(engine, 2, fill=0x77, fua=True))
    service(wbuf(engine, 3))
    disk.fault_plan = FaultPlan(die_at=0.0)
    with pytest.raises(MemberDeadError):
        service(Buf(engine, BufOp.READ, 3, 1))
    kinds = [ev.kind for ev in disk.journal]
    assert kinds == ["write", "destage", "flush", "fua", "write", "drop"]
    write, destage, _, fua, second, _ = disk.journal
    assert write.ordered and write.sector == 1
    assert destage.seq == write.seq  # the entry it made durable
    assert fua.data == bytes([0x77]) * SS and fua.seq == -1
    assert second.seq > write.seq


def test_note_flush_requires_drained_cache():
    engine, store, cache = make_cache()
    cache.write(wbuf(engine, 1))
    with pytest.raises(AssertionError):
        cache.note_flush()
