"""Tests for the elevator anti-starvation bound and queue-bytes tracking."""

from repro.disk import (
    Buf, BufOp, DiskDriver, DiskGeometry, DiskQueue, ElevatorScheduler,
    RotationalDisk,
)
from repro.obs.metrics import MetricsRegistry
from repro.sim import Engine

MAX_PASSES = ElevatorScheduler.MAX_PASSES


def wbuf(engine, sector, nsectors=2):
    return Buf(engine, BufOp.WRITE, sector, nsectors,
               data=bytes(nsectors * 512), async_=True)


def test_pass_limit_rescues_starved_request():
    eng = Engine()
    queue = DiskQueue()
    victim = Buf(eng, BufOp.READ, 5, 2)
    queue.insert(victim)
    last = 500
    served = []
    next_sector = 600
    for _ in range(MAX_PASSES + 2):
        queue.insert(wbuf(eng, next_sector))
        next_sector += 10
        buf = queue.pop(last)
        served.append(buf)
        last = buf.end_sector
        if buf is victim:
            break
    assert victim in served
    # It was passed over exactly MAX_PASSES times before being forced.
    assert served.index(victim) == MAX_PASSES


def test_forced_request_counts_as_pass_for_others():
    """Several starved requests are served oldest-first."""
    eng = Engine()
    queue = DiskQueue()
    old = Buf(eng, BufOp.READ, 5, 2)
    queue.insert(old)
    newer = Buf(eng, BufOp.READ, 10, 2)
    queue.insert(newer)
    last = 500
    order = []
    next_sector = 600
    for _ in range(MAX_PASSES + 4):
        queue.insert(wbuf(eng, next_sector))
        next_sector += 10
        buf = queue.pop(last)
        last = buf.end_sector
        order.append(buf)
        if old in order and newer in order:
            break
    assert order.index(old) < order.index(newer)


def test_no_passes_without_skipping():
    """Pure ascending traffic never triggers the starvation path."""
    eng = Engine()
    queue = DiskQueue()
    for sector in (10, 20, 30):
        queue.insert(wbuf(eng, sector))
    order = []
    last = 0
    while True:
        buf = queue.pop(last)
        if buf is None:
            break
        order.append(buf.sector)
        last = buf.end_sector
    assert order == [10, 20, 30]


def test_queue_bytes_tracks_pinned_memory():
    eng = Engine()
    geom = DiskGeometry.uniform(cylinders=50, heads=2, sectors_per_track=16)
    metrics = MetricsRegistry(eng)
    disk = RotationalDisk(eng, metrics, "disk.mech", geom)
    driver = DiskDriver(eng, metrics, "disk.driver", disk)
    for sector in (8, 40, 100):
        driver.strategy(wbuf(eng, sector, nsectors=4))
    assert driver.queue_bytes.value == 3 * 4 * 512
    eng.run()
    assert driver.queue_bytes.value == 0
    assert driver.queue_bytes.maximum == 3 * 4 * 512
