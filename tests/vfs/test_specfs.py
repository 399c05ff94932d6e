"""Tests for the raw-disk vnode (specfs)."""

import pytest

from repro.cpu import CostTable, Cpu
from repro.disk import DiskDriver, DiskGeometry, RotationalDisk
from repro.errors import InvalidArgumentError
from repro.obs.metrics import MetricsRegistry
from repro.sim import Engine
from repro.vfs import PutFlags, RW, RawDiskVnode


@pytest.fixture
def raw():
    engine = Engine()
    geom = DiskGeometry.uniform(cylinders=40, heads=2, sectors_per_track=16)
    metrics = MetricsRegistry(engine)
    disk = RotationalDisk(engine, metrics, "disk.mech", geom)
    cpu = Cpu(engine, metrics, CostTable.free())
    driver = DiskDriver(engine, metrics, "disk.driver", disk, cpu=cpu)
    return engine, disk, RawDiskVnode(engine, driver, cpu)


def test_write_read_round_trip(raw):
    engine, disk, vnode = raw
    payload = bytes(range(256)) * 8  # 2 KB = 4 sectors

    def work():
        n = yield from vnode.rdwr(RW.WRITE, 8192, payload)
        data = yield from vnode.rdwr(RW.READ, 8192, len(payload))
        return n, data

    n, data = engine.run_process(work())
    assert n == len(payload)
    assert data == payload
    assert disk.store.read(16, 4) == payload


def test_size_is_device_capacity(raw):
    _, disk, vnode = raw
    assert vnode.size == disk.geometry.capacity_bytes


def test_unaligned_io_rejected(raw):
    engine, _, vnode = raw

    def bad_offset():
        yield from vnode.rdwr(RW.READ, 100, 512)

    with pytest.raises(ValueError):
        engine.run_process(bad_offset())

    def bad_length():
        yield from vnode.rdwr(RW.READ, 512, 100)

    with pytest.raises(ValueError):
        engine.run_process(bad_length())


def test_io_past_device_end_rejected(raw):
    engine, _, vnode = raw

    def work():
        yield from vnode.rdwr(RW.READ, vnode.size, 512)

    with pytest.raises(ValueError):
        engine.run_process(work())


def test_no_paging_interfaces(raw):
    _, _, vnode = raw
    with pytest.raises(NotImplementedError):
        next(iter(vnode.getpage(0)))
    with pytest.raises(NotImplementedError):
        next(iter(vnode.putpage(0, 512, PutFlags())))


def test_a_raw_disk_cannot_be_truncated(raw):
    engine, _, vnode = raw
    with pytest.raises(InvalidArgumentError):
        engine.run_process(vnode.truncate())


def test_raw_io_takes_real_time(raw):
    engine, _, vnode = raw

    def work():
        yield from vnode.rdwr(RW.WRITE, 0, bytes(512))

    engine.run_process(work())
    assert engine.now > 0
