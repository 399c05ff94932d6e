"""Driver-level fault recovery: retries, remapping, split-retry, propagation."""

from repro.disk import Buf, BufOp, DiskDriver, DiskGeometry, DiskQueue, RotationalDisk
from repro.errors import MemberDeadError, TransientDiskError
from repro.faults import FaultPlan
from repro.sim import Engine
from repro.sim.events import EventFailed


def make_stack(engine, plan=None, **driver_kwargs):
    geom = DiskGeometry.uniform(cylinders=50, heads=2, sectors_per_track=16)
    disk = RotationalDisk(engine, geom, fault_plan=plan)
    driver = DiskDriver(engine, disk, **driver_kwargs)
    return disk, driver


def wbuf(engine, sector, nsectors=2, **kw):
    return Buf(engine, BufOp.WRITE, sector, nsectors,
               data=bytes(nsectors * 512), **kw)


def test_transient_error_retried_to_success():
    eng = Engine()
    plan = FaultPlan(transient_at=[0.0])
    disk, driver = make_stack(eng, plan)
    payload = b"\xab" * 1024
    disk.store.write(10, payload)

    def proc():
        buf = Buf(eng, BufOp.READ, 10, 2)
        driver.strategy(buf)
        yield buf.done
        return buf

    buf = eng.run_process(proc())
    assert buf.data == payload
    assert buf.error is None
    assert driver.stats["transient_errors"] == 1
    assert driver.stats["retries"] == 1
    assert driver.stats["retries_exhausted"] == 0
    assert driver.stats["errors"] == 0


def test_retry_backoff_is_exponential():
    def elapsed(nfaults):
        eng = Engine()
        _, driver = make_stack(eng, FaultPlan(transient_at=[0.0] * nfaults))
        driver.strategy(wbuf(eng, 8, async_=True))
        eng.run()
        return eng.now

    # Backoffs double: 2ms, then 4ms, then 8ms.  A single short backoff can
    # hide inside the rotational wait (the spindle position is a function of
    # absolute time), but three failures add >= 12ms more backoff than one
    # failure does, which no rotational slack at this geometry can absorb.
    assert elapsed(3) > elapsed(1) + 0.012


def test_retries_exhausted_fails_the_buf():
    eng = Engine()
    plan = FaultPlan(read_transient_p=1.0)
    _, driver = make_stack(eng, plan, max_retries=3)
    buf = Buf(eng, BufOp.READ, 10, 2, async_=True)
    driver.strategy(buf)
    eng.run()
    assert isinstance(buf.error, TransientDiskError)
    assert buf.data is None
    assert driver.stats["retries"] == 3
    assert driver.stats["retries_exhausted"] == 1
    assert driver.stats["errors"] == 1


def test_sync_waiter_sees_the_failure():
    eng = Engine()
    plan = FaultPlan(read_transient_p=1.0)
    _, driver = make_stack(eng, plan, max_retries=1)

    def proc():
        buf = Buf(eng, BufOp.READ, 10, 2)
        driver.strategy(buf)
        try:
            yield buf.done
        except EventFailed as failure:
            return failure.args[0]
        return None

    err = eng.run_process(proc())
    assert isinstance(err, TransientDiskError)


def test_media_error_remapped_to_spare():
    eng = Engine()
    plan = FaultPlan(bad_sectors=[11])
    disk, driver = make_stack(eng, plan)
    payload = bytes(range(256)) * 4
    disk.store.write(10, payload)

    def proc():
        buf = Buf(eng, BufOp.READ, 10, 2)
        driver.strategy(buf)
        yield buf.done
        return buf.data

    assert eng.run_process(proc()) == payload
    assert driver.remap_table == {11: 0}
    assert driver.stats["media_errors"] == 1
    assert driver.stats["remaps"] == 1
    assert plan.bad_sectors == set()  # defect revectored, no longer bad


def test_timeout_detected_and_recovered():
    eng = Engine()
    plan = FaultPlan(timeout_at=[0.0], timeout_hang=0.25)
    _, driver = make_stack(eng, plan)

    def proc():
        buf = Buf(eng, BufOp.READ, 10, 2)
        driver.strategy(buf)
        yield buf.done
        return eng.now

    t = eng.run_process(proc())
    assert t >= 0.25  # the hang really happened before detection
    assert driver.stats["timeouts_detected"] == 1
    assert driver.stats["retries"] == 1
    assert driver.stats["errors"] == 0


def test_dead_disk_is_not_retried():
    eng = Engine()
    plan = FaultPlan(die_at=0.0)
    _, driver = make_stack(eng, plan)
    buf = wbuf(eng, 8, async_=True)
    driver.strategy(buf)
    eng.run()
    assert isinstance(buf.error, MemberDeadError)
    assert driver.stats["retries"] == 0  # dead electronics: no point
    assert driver.stats["errors"] == 1


def test_failed_cluster_splits_and_children_succeed():
    eng = Engine()
    # Five scheduled transients: the 2-child coalesced parent burns all of
    # them (4 retries + the final attempt), fails, and is split; the
    # children then service cleanly on their own.
    plan = FaultPlan(transient_at=[0.0] * 5)
    disk, driver = make_stack(eng, plan, coalesce=True)
    b1 = Buf(eng, BufOp.WRITE, 8, 2, data=b"\x11" * 1024, async_=True)
    b2 = Buf(eng, BufOp.WRITE, 10, 2, data=b"\x22" * 1024, async_=True)
    driver.strategy(b1)
    driver.strategy(b2)
    eng.run()
    assert driver.stats["coalesced"] == 1
    assert driver.stats["split_retries"] == 1
    assert driver.stats["retries_exhausted"] == 1
    assert b1.error is None and b2.error is None
    assert disk.store.read(8, 2) == b"\x11" * 1024
    assert disk.store.read(10, 2) == b"\x22" * 1024


def test_unrecoverable_cluster_failure_reaches_every_child():
    eng = Engine()
    plan = FaultPlan(read_transient_p=1.0)
    _, driver = make_stack(eng, plan, coalesce=True, max_retries=2)
    r1 = Buf(eng, BufOp.READ, 8, 2, async_=True)
    r2 = Buf(eng, BufOp.READ, 10, 2, async_=True)
    driver.strategy(r1)
    driver.strategy(r2)
    eng.run()
    assert driver.stats["coalesced"] == 1
    assert driver.stats["split_retries"] == 1
    assert isinstance(r1.error, TransientDiskError)
    assert isinstance(r2.error, TransientDiskError)


def test_complete_children_propagates_error_without_slicing():
    eng = Engine()
    _, driver = make_stack(eng)
    parent = Buf(eng, BufOp.READ, 8, 4, async_=True)
    c1 = Buf(eng, BufOp.READ, 8, 2, async_=True)
    c2 = Buf(eng, BufOp.READ, 10, 2, async_=True)
    parent.children.extend([c1, c2])
    boom = TransientDiskError("boom")
    driver._complete(parent, boom)
    assert c1.error is boom and c2.error is boom
    assert c1.data is None and c2.data is None  # no stale slice on failure


def test_queue_remove_drops_starvation_counter():
    eng = Engine()
    queue = DiskQueue()
    behind = wbuf(eng, 10)
    ahead = wbuf(eng, 50)
    queue.insert(behind)
    queue.insert(ahead)
    assert queue.pop(last_sector=20) is ahead  # passes over `behind`
    assert queue._passes  # the pass was counted
    queue.remove(behind)  # e.g. absorbed into a coalesced parent
    assert not queue._passes  # and the counter did not leak
