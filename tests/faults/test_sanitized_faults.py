"""Pinned regressions: the bugs the sanitizer sweep surfaced.

Each test drives an error path that used to leak — an open span on a
request that finished, a buf that vanished in split-retry accounting, a
throttle slot stuck after a failed write-behind — and then lets the
sanitizer's checks assert the books balance.  These are *pinned*: if the
try/finally or credit-on-error disciplines regress, the checkpoint (or
the span-leak ledger) fails here before any campaign does.
"""

import pytest

from repro.disk import Buf, BufOp, DiskDriver, DiskGeometry, RotationalDisk
from repro.errors import ReproError
from repro.faults import FaultPlan
from repro.kernel import Proc, System, SystemConfig
from repro.obs.metrics import MetricsRegistry
from repro.sim import Engine, SimulationError
from repro.units import KB


def small_config(**overrides):
    return SystemConfig.config_a().with_(
        geometry=DiskGeometry.uniform(cylinders=200, heads=4,
                                      sectors_per_track=32), **overrides)


def make_faulty_system(plan):
    system = System(small_config(), fault_plan=plan)
    system.sanitizer.enabled = True
    system.mkfs()
    system.run(system.mount_fs())
    return system


# -- span leaks on EIO paths (ufs/io.py, vm/pagecache.py) --------------------

def test_failing_writes_leak_no_spans_or_slots():
    # Every write attempt fails (retries exhausted -> hard EIO at fsync).
    # The biowait and throttle_wait spans must still close, the iodone
    # must still credit the throttle, and every buf must settle.
    system = make_faulty_system(FaultPlan(write_transient_p=1.0))
    system.tracer.enabled = True
    proc = Proc(system)

    def work():
        fd = yield from proc.creat("/doomed")
        yield from proc.write(fd, bytes(32 * KB))
        yield from proc.fsync(fd)

    with pytest.raises((ReproError, SimulationError)):
        system.run(work(), name="doomed-write")
    system.engine.run()  # drain any async completions to idle
    system.tracer.enabled = False

    assert system.driver.stats["errors"] > 0  # the EIO path really ran
    assert system.requests.span_leaks == []
    assert not system.requests.open
    system.sanitizer.checkpoint("after_write_eio", idle=True)


def test_failing_reads_leak_no_spans():
    # Write durably first, then make every read attempt fail: the read
    # request must complete with the error and no open spans.
    plan = FaultPlan()
    system = make_faulty_system(plan)
    proc = Proc(system)

    def put():
        fd = yield from proc.creat("/f")
        yield from proc.write(fd, bytes(range(256)) * 64)
        yield from proc.fsync(fd)
        yield from proc.close(fd)

    system.run(put())
    system.run(system.mount.namei("/f"))  # warm the name cache
    for page in list(system.pagecache.frames):
        if page is not None and page.named and not page.locked \
                and not page.dirty:
            system.pagecache.destroy(page)  # cold cache: reads hit the disk
    system.tracer.enabled = True
    plan.read_transient_p = 1.0

    def get():
        fd = yield from proc.open("/f")
        yield from proc.read(fd, 8 * KB)

    with pytest.raises((ReproError, SimulationError)):
        system.run(get(), name="doomed-read")
    system.engine.run()
    system.tracer.enabled = False
    plan.read_transient_p = 0.0

    assert system.requests.span_leaks == []
    assert not system.requests.open
    system.sanitizer.checkpoint("after_read_eio", idle=True)


def test_memory_wait_span_closes_on_teardown():
    # The historical leak: wait_for_memory began a mem_wait span and the
    # generator was torn down (close/interrupt) before the wait returned.
    from repro.sim import Tracer
    from repro.sim.request import RequestRegistry
    from repro.vm.pagecache import PageCache

    eng = Engine()
    tracer = Tracer(eng, enabled=True)
    metrics = MetricsRegistry(eng)
    registry = RequestRegistry(eng, metrics, tracer)
    pc = PageCache(eng, metrics, 64 * KB, page_size=8 * KB)

    class VN:
        vnode_id = 1

    for i in range(8):
        pc.allocate(VN(), i * 8 * KB)  # exhaust memory
    req = registry.start("write")
    gen = pc.wait_for_memory(req=req)
    next(gen)  # parked on the memory_wanted wait, span open
    gen.close()  # teardown without the wait ever firing
    req.complete()
    assert registry.span_leaks == []


# -- buf balance through coalesce and split-retry ----------------------------

def driver_stack(engine, plan=None, **kw):
    geom = DiskGeometry.uniform(cylinders=50, heads=2, sectors_per_track=16)
    metrics = MetricsRegistry(engine)
    disk = RotationalDisk(engine, metrics, "disk.mech", geom, fault_plan=plan)
    return disk, DiskDriver(engine, metrics, "disk.driver", disk, **kw)


def test_split_retry_settles_every_issued_buf():
    eng = Engine()
    # The coalesced parent burns all retries and is split; both children
    # then succeed.  The parent was never *issued* (the driver built it),
    # so exactly the two strategy()'d bufs must settle.
    plan = FaultPlan(transient_at=[0.0] * 5)
    _, driver = driver_stack(eng, plan, coalesce=True)
    b1 = Buf(eng, BufOp.WRITE, 8, 2, data=b"\x11" * 1024, async_=True)
    b2 = Buf(eng, BufOp.WRITE, 10, 2, data=b"\x22" * 1024, async_=True)
    driver.strategy(b1)
    driver.strategy(b2)
    eng.run()
    assert driver.stats["split_retries"] == 1
    assert driver.outstanding == {}
    assert driver.stats["tracked_issued"] == 2
    assert driver.stats["tracked_completed"] == 2


def test_unrecoverable_split_still_settles_children():
    eng = Engine()
    plan = FaultPlan(read_transient_p=1.0)
    _, driver = driver_stack(eng, plan, coalesce=True)
    r1 = Buf(eng, BufOp.READ, 8, 2, async_=True)
    r2 = Buf(eng, BufOp.READ, 10, 2, async_=True)
    driver.strategy(r1)
    driver.strategy(r2)
    eng.run()
    assert r1.error is not None and r2.error is not None
    assert driver.outstanding == {}
    assert driver.stats["tracked_issued"] == 2
    assert driver.stats["tracked_completed"] == 2


# -- NFS deferred-error path: the throttle slot comes back -------------------

def test_nfs_write_behind_error_returns_throttle_slot():
    from repro.faults.netplan import NetFaultPlan
    from repro.nfs.world import build_world

    # A long partition makes the async biod pushes on a soft mount fail;
    # the deferred error is remembered, but the throttle slot must come
    # back or the file wedges at the limit forever.
    plan = NetFaultPlan()
    client, server_sys, mount = build_world(fault_plan=plan, soft=True,
                                            timeo=0.1, retrans=2)
    client.sanitizer.enabled = True
    proc = Proc(client, mount=mount)

    def work():
        fd = yield from proc.creat("/f")
        yield from proc.write(fd, bytes(16 * KB))

    plan.partitions = [(client.now, 1e9)]
    try:
        client.run(work(), name="nfs-doomed")
    except ReproError:
        pass
    client.engine.run()
    assert (mount.stats["write_behind_errors"] > 0
            or mount.stats["rpc_timeouts"] > 0)  # the error path really ran
    for vn in mount.vnodes():
        assert vn.throttle.in_flight == 0
    client.sanitizer.checkpoint("after_nfs_error", idle=True)


def test_a_build_world_client_checks_its_nfs_throttles():
    """``build_world`` registers the client's NFS vnodes with its
    sanitizer, so every client of it (the ``crashpoints --preset nfs``
    recording and the soft-mount probe too) holds its write throttles: a
    slot taken and never credited fails the next idle checkpoint."""
    from repro.nfs.world import build_world
    from repro.sim.invariants import SanitizerError

    client, _server, mount = build_world()
    client.sanitizer.enabled = True
    proc = Proc(client, mount=mount)
    client.run(proc.creat("/f"), name="nfs-create")
    vn = client.run(mount.namei("/f"), name="nfs-lookup")
    vn.throttle.take(4 * KB)
    with pytest.raises(SanitizerError, match="throttle_conservation"):
        client.sanitizer.checkpoint("test", idle=True)
