"""Tests for the rotational disk timing model and track buffer."""

import pytest

from repro.disk import Buf, BufOp, DiskGeometry, RotationalDisk
from repro.obs.metrics import MetricsRegistry
from repro.sim import Engine
from repro.units import MB


def make_disk(engine, track_buffer=True, **kwargs):
    geom = DiskGeometry.uniform(
        cylinders=20, heads=2, sectors_per_track=16,
        track_skew=2, cyl_skew=4,
    )
    return RotationalDisk(engine, MetricsRegistry(engine), "disk.mech", geom,
                          track_buffer=track_buffer, **kwargs)


def service(engine, disk, buf):
    return engine.run_process(disk.service(buf))


def test_write_then_read_round_trip_data():
    eng = Engine()
    disk = make_disk(eng)
    payload = bytes([i % 251 for i in range(4 * 512)])
    wbuf = Buf(eng, BufOp.WRITE, sector=8, nsectors=4, data=payload)
    service(eng, disk, wbuf)
    rbuf = Buf(eng, BufOp.READ, sector=8, nsectors=4)
    service(eng, disk, rbuf)
    assert rbuf.data == payload


def test_write_through_journal_is_one_fua_per_media_write():
    """On the paper's write-through drive every media write is durable
    when it completes: one ``fua`` event each, and replaying them over
    the image the journal started from reproduces the store."""
    eng = Engine()
    disk = make_disk(eng)
    disk.store.write(0, bytes([0x5A]) * (4 * 512))
    base = disk.store.clone()
    disk.journal = []
    writes = [(8, 4, 0x11), (30, 10, 0x22), (9, 2, 0x33)]  # one spans tracks
    for sector, nsectors, fill in writes:
        service(eng, disk, Buf(eng, BufOp.WRITE, sector=sector,
                               nsectors=nsectors,
                               data=bytes([fill]) * (nsectors * 512)))
    service(eng, disk, Buf(eng, BufOp.READ, sector=0, nsectors=4))
    assert [(ev.kind, ev.sector, ev.nsectors) for ev in disk.journal] == [
        ("fua", sector, nsectors) for sector, nsectors, _ in writes]
    for ev in disk.journal:
        base.write(ev.sector, ev.data)
    assert base.digest() == disk.store.digest()


def test_read_timing_includes_rotation_and_transfer():
    eng = Engine()
    disk = make_disk(eng, track_buffer=False)
    geom = disk.geometry
    buf = Buf(eng, BufOp.READ, sector=4, nsectors=4)
    service(eng, disk, buf)
    # overhead + rotational wait to sector 4 + 4 sector transfer
    expected_wait = geom.rotational_wait(disk.controller_overhead, 0, 0, 4)
    expected = disk.controller_overhead + expected_wait + 4 * geom.sector_time(0)
    assert eng.now == pytest.approx(expected)


def test_sequential_reads_hit_track_buffer():
    eng = Engine()
    disk = make_disk(eng)
    b1 = Buf(eng, BufOp.READ, sector=0, nsectors=4)
    service(eng, disk, b1)
    assert disk.stats["buffer_hits"] == 0
    b2 = Buf(eng, BufOp.READ, sector=4, nsectors=4)
    service(eng, disk, b2)
    assert disk.stats["buffer_hits"] == 1
    assert disk.stats["media_accesses"] == 1


def test_track_buffer_does_not_cover_earlier_sectors():
    """Look-ahead fills forward only; sectors before the fill start miss."""
    eng = Engine()
    disk = make_disk(eng)
    service(eng, disk, Buf(eng, BufOp.READ, sector=8, nsectors=4))
    service(eng, disk, Buf(eng, BufOp.READ, sector=0, nsectors=4))
    assert disk.stats["buffer_hits"] == 0
    assert disk.stats["media_accesses"] == 2


def test_write_invalidates_track_buffer():
    eng = Engine()
    disk = make_disk(eng)
    service(eng, disk, Buf(eng, BufOp.READ, sector=0, nsectors=4))
    service(eng, disk, Buf(eng, BufOp.WRITE, sector=100, nsectors=2, data=bytes(1024)))
    service(eng, disk, Buf(eng, BufOp.READ, sector=4, nsectors=4))
    assert disk.stats["buffer_hits"] == 0


def test_writes_never_use_buffer():
    """The track buffer is write-through: writes always access media."""
    eng = Engine()
    disk = make_disk(eng)
    service(eng, disk, Buf(eng, BufOp.READ, sector=0, nsectors=16))
    before = disk.stats["media_accesses"]
    service(eng, disk, Buf(eng, BufOp.WRITE, sector=4, nsectors=2, data=bytes(1024)))
    assert disk.stats["media_accesses"] == before + 1


def test_buffer_hit_waits_for_fill_availability():
    """A hit on sectors that have not rotated into the buffer yet waits."""
    eng = Engine()
    disk = make_disk(eng, bus_rate=1000 * MB)  # make bus time negligible
    geom = disk.geometry
    service(eng, disk, Buf(eng, BufOp.READ, sector=0, nsectors=1))
    t_after_first = eng.now
    # Sector 15 is 15 sector-times after sector 0 finished filling.
    service(eng, disk, Buf(eng, BufOp.READ, sector=15, nsectors=1))
    availability = (t_after_first - geom.sector_time(0)) + 16 * geom.sector_time(0)
    assert eng.now == pytest.approx(availability)


def test_multi_track_transfer_crosses_head_and_cylinder():
    eng = Engine()
    disk = make_disk(eng, track_buffer=False)
    # 40 sectors starting at 0: track0 (16) + track1/head1 (16) + cyl1 (8)
    buf = Buf(eng, BufOp.READ, sector=0, nsectors=40)
    service(eng, disk, buf)
    assert disk.stats["head_switches"] == 1
    assert disk.stats["seeks"] == 1
    assert len(buf.data) == 40 * 512


def test_skew_keeps_multi_track_transfer_efficient():
    eng = Engine()
    disk = make_disk(eng, track_buffer=False)
    geom = disk.geometry
    buf = Buf(eng, BufOp.READ, sector=0, nsectors=32)  # exactly 2 tracks
    service(eng, disk, buf)
    # Pure transfer time is 32 sector times.  Allow the unavoidable initial
    # rotational positioning (up to one rotation) plus a *small* boundary
    # cost; skew must prevent losing another rotation at the head switch.
    pure = 32 * geom.sector_time(0)
    budget = (
        disk.controller_overhead + geom.rotation_time  # initial positioning
        + pure
        + geom.head_switch_time + 4 * geom.sector_time(0)  # skewed switch
    )
    assert eng.now < budget


def test_missed_rotation_costs_nearly_full_turn():
    """Re-reading the sector that just passed costs ~a full rotation
    (without the track buffer) — the paper's core argument for rotdelay."""
    eng = Engine()
    disk = make_disk(eng, track_buffer=False)
    geom = disk.geometry
    service(eng, disk, Buf(eng, BufOp.READ, sector=0, nsectors=1))
    t0 = eng.now
    service(eng, disk, Buf(eng, BufOp.READ, sector=1, nsectors=1))
    elapsed = eng.now - t0
    # controller overhead pushes us past sector 1, so we wait ~a rotation.
    assert elapsed > 0.8 * geom.rotation_time


def test_track_buffer_rescues_back_to_back_reads():
    eng = Engine()
    disk = make_disk(eng, track_buffer=True)
    geom = disk.geometry
    service(eng, disk, Buf(eng, BufOp.READ, sector=0, nsectors=1))
    t0 = eng.now
    service(eng, disk, Buf(eng, BufOp.READ, sector=1, nsectors=1))
    elapsed = eng.now - t0
    assert elapsed < 0.2 * geom.rotation_time


def test_request_beyond_disk_rejected():
    eng = Engine()
    disk = make_disk(eng)
    buf = Buf(eng, BufOp.READ, sector=disk.geometry.total_sectors - 1, nsectors=2)
    with pytest.raises(ValueError):
        eng.run_process(disk.service(buf))


def test_write_data_length_validated():
    eng = Engine()
    disk = make_disk(eng)
    buf = Buf(eng, BufOp.WRITE, sector=0, nsectors=4, data=bytes(512))
    with pytest.raises(ValueError):
        eng.run_process(disk.service(buf))


def test_sequential_streaming_approaches_media_rate():
    """Large contiguous reads with read-ahead requests issued back-to-back
    should sustain close to the media rate (the clustering win)."""
    eng = Engine()
    geom = DiskGeometry.ibm_400mb()
    disk = RotationalDisk(eng, MetricsRegistry(eng), "disk.mech", geom)
    total_sectors = 240 * 8  # 8 clusters of 120 KB

    def workload():
        sector = 0
        for _ in range(8):
            buf = Buf(eng, BufOp.READ, sector=sector, nsectors=240)
            yield from disk.service(buf)
            sector += 240

    eng.run_process(workload())
    nbytes = total_sectors * 512
    rate = nbytes / eng.now
    assert rate > 0.85 * geom.media_rate(0)


def test_buf_validation():
    eng = Engine()
    with pytest.raises(ValueError):
        Buf(eng, BufOp.READ, sector=0, nsectors=0)
    with pytest.raises(ValueError):
        Buf(eng, BufOp.READ, sector=-1, nsectors=1)
    with pytest.raises(ValueError):
        Buf(eng, BufOp.WRITE, sector=0, nsectors=1)  # no data


def test_buf_helpers():
    eng = Engine()
    a = Buf(eng, BufOp.READ, sector=0, nsectors=4)
    b = Buf(eng, BufOp.READ, sector=4, nsectors=4)
    c = Buf(eng, BufOp.READ, sector=9, nsectors=4)
    assert a.adjacent_to(b) and b.adjacent_to(a)
    assert not b.adjacent_to(c)
    assert a.end_sector == 4
    assert a.nbytes == 2048
    assert a.is_read and not a.is_write
