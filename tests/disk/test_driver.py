"""Tests for the disk driver: queueing, disksort, coalescing, B_ORDER."""

import pytest

from repro.disk import Buf, BufOp, DiskDriver, DiskGeometry, DiskQueue, RotationalDisk
from repro.obs.metrics import MetricsRegistry
from repro.sim import Engine
from repro.units import KB


def make_stack(engine, **driver_kwargs):
    geom = DiskGeometry.uniform(cylinders=50, heads=2, sectors_per_track=16)
    metrics = MetricsRegistry(engine)
    disk = RotationalDisk(engine, metrics, "disk.mech", geom)
    driver = DiskDriver(engine, metrics, "disk.driver", disk, **driver_kwargs)
    return disk, driver


def wbuf(engine, sector, nsectors=2, **kw):
    return Buf(engine, BufOp.WRITE, sector, nsectors, data=bytes(nsectors * 512), **kw)


def test_sync_read_completes_with_data():
    eng = Engine()
    disk, driver = make_stack(eng)
    payload = b"\x5a" * 1024
    disk.store.write(10, payload)

    def proc():
        buf = Buf(eng, BufOp.READ, sector=10, nsectors=2)
        driver.strategy(buf)
        yield buf.done
        return buf.data

    assert eng.run_process(proc()) == payload


def test_async_write_persists():
    eng = Engine()
    disk, driver = make_stack(eng)
    buf = wbuf(eng, 4, async_=True)
    driver.strategy(buf)
    eng.run()
    assert disk.store.read(4, 2) == bytes(1024)
    assert buf.finished_at is not None


def test_driver_services_fifo_when_disksort_off():
    eng = Engine()
    _, driver = make_stack(eng, scheduler="fifo")
    order = []
    for sector in (40, 8, 24):
        buf = wbuf(eng, sector, async_=True)
        buf.iodone.append(lambda b: order.append(b.sector))
        driver.strategy(buf)
    eng.run()
    assert order == [40, 8, 24]


def test_disksort_orders_by_elevator():
    eng = Engine()
    _, driver = make_stack(eng)
    order = []
    # Insert in scrambled order while the disk is busy with the first.
    first = wbuf(eng, 0)
    first.iodone.append(lambda b: order.append(b.sector))
    driver.strategy(first)
    for sector in (600, 100, 900, 300):
        buf = wbuf(eng, sector, async_=True)
        buf.iodone.append(lambda b: order.append(b.sector))
        driver.strategy(buf)
    eng.run()
    assert order == [0, 100, 300, 600, 900]


def test_disksort_wraps_around():
    """C-LOOK: requests behind the head are served on the next sweep."""
    queue = DiskQueue()
    eng = Engine()
    for sector in (10, 50, 90):
        queue.insert(wbuf(eng, sector))
    assert queue.pop(last_sector=60).sector == 90
    assert queue.pop(last_sector=92).sector == 10
    assert queue.pop(last_sector=12).sector == 50
    assert queue.pop(last_sector=0) is None


def test_ordered_buf_is_a_barrier():
    queue = DiskQueue()
    eng = Engine()
    queue.insert(wbuf(eng, 100))
    barrier = wbuf(eng, 500, ordered=True)
    queue.insert(barrier)
    queue.insert(wbuf(eng, 10))  # later request with a lower sector
    assert queue.pop(0).sector == 100
    assert queue.pop(102) is barrier
    assert queue.pop(502).sector == 10


def test_queue_len_and_pop_order():
    queue = DiskQueue()
    eng = Engine()
    bufs = [wbuf(eng, s) for s in (30, 10, 20)]
    for b in bufs:
        queue.insert(b)
    assert len(queue) == 3
    assert queue.pop(0).sector == 10
    assert len(queue) == 2
    assert [queue.pop(12).sector, queue.pop(22).sector] == [20, 30]
    assert len(queue) == 0


def test_coalescing_merges_adjacent_writes():
    eng = Engine()
    disk, driver = make_stack(eng, coalesce=True)
    # Keep the disk busy so later requests sit in the queue and can merge.
    driver.strategy(wbuf(eng, 700, async_=True))
    done = []
    for sector in (8, 10, 12):
        buf = Buf(eng, BufOp.WRITE, sector, 2, data=bytes([sector]) * 1024, async_=True)
        buf.iodone.append(lambda b: done.append(b.sector))
        driver.strategy(buf)
    eng.run()
    assert driver.stats["coalesced"] == 2
    assert sorted(done) == [8, 10, 12]
    # All three writes landed correctly via the merged request.
    for sector in (8, 10, 12):
        assert disk.store.read(sector, 2) == bytes([sector]) * 1024
    # Only two media requests: the decoy and the merged triple.
    assert disk.stats["requests"] == 2


def test_coalescing_respects_size_limit():
    eng = Engine()
    _, driver = make_stack(eng, coalesce=True)
    limit = DiskDriver.COALESCE_LIMIT // 512
    driver.strategy(wbuf(eng, 1400, async_=True))  # busy decoy
    driver.strategy(wbuf(eng, 8, nsectors=limit // 2, async_=True))
    driver.strategy(wbuf(eng, 8 + limit // 2, nsectors=limit // 2 + 2,
                         async_=True))  # together: past the limit
    eng.run()
    assert driver.stats["coalesced"] == 0


def test_coalesced_read_distributes_data():
    eng = Engine()
    disk, driver = make_stack(eng, coalesce=True)
    disk.store.write(8, b"\x11" * 1024 + b"\x22" * 1024)
    driver.strategy(wbuf(eng, 700, async_=True))  # busy decoy
    r1 = Buf(eng, BufOp.READ, 8, 2, async_=True)
    r2 = Buf(eng, BufOp.READ, 10, 2, async_=True)
    driver.strategy(r1)
    driver.strategy(r2)
    eng.run()
    assert driver.stats["coalesced"] == 1
    assert r1.data == b"\x11" * 1024
    assert r2.data == b"\x22" * 1024


def test_no_coalescing_of_read_with_write():
    eng = Engine()
    _, driver = make_stack(eng, coalesce=True)
    driver.strategy(wbuf(eng, 700, async_=True))  # busy decoy
    driver.strategy(wbuf(eng, 8, async_=True))
    driver.strategy(Buf(eng, BufOp.READ, 10, 2, async_=True))
    eng.run()
    assert driver.stats["coalesced"] == 0


def test_drain_event():
    eng = Engine()
    _, driver = make_stack(eng)
    for sector in (8, 40):
        driver.strategy(wbuf(eng, sector, async_=True))

    def waiter():
        yield driver.drain()
        return eng.now

    t = eng.run_process(waiter())
    assert t > 0
    assert driver.idle


def test_drain_when_already_idle():
    eng = Engine()
    _, driver = make_stack(eng)

    def waiter():
        yield driver.drain()
        return eng.now

    assert eng.run_process(waiter()) == 0


def test_interrupt_charged_on_completion():
    from repro.cpu import Cpu

    eng = Engine()
    geom = DiskGeometry.uniform(cylinders=50, heads=2, sectors_per_track=16)
    metrics = MetricsRegistry(eng)
    disk = RotationalDisk(eng, metrics, "disk.mech", geom)
    cpu = Cpu(eng, metrics)
    driver = DiskDriver(eng, metrics, "disk.driver", disk, cpu=cpu)
    driver.strategy(wbuf(eng, 8, async_=True))
    eng.run()
    assert cpu.ledger["interrupt"] == pytest.approx(cpu.costs.interrupt)


def test_queue_depth_statistic():
    eng = Engine()
    _, driver = make_stack(eng)
    for sector in (8, 40, 80):
        driver.strategy(wbuf(eng, sector, async_=True))
    assert driver.queue_depth.value == 3
    eng.run()
    assert driver.queue_depth.value == 0
    assert driver.queue_depth.maximum == 3
