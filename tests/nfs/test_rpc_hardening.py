"""Tests for the hardened NFS RPC layer: retransmission, adaptive
timeouts, the duplicate-request cache, corruption rejection, mount
semantics, and write-behind failure propagation."""

import pytest

from repro.disk import DiskGeometry
from repro.errors import FileNotFoundError_, RpcTimeoutError
from repro.faults import NetFaultPlan
from repro.faults.netplan import DOWN, UP
from repro.kernel import Proc, SystemConfig
from repro.nfs import NfsServer, RttEstimator, build_world
from repro.sim.engine import SimulationError
from repro.units import KB


def small_world(**kwargs):
    server_cfg = SystemConfig.config_a().with_(
        geometry=DiskGeometry.uniform(cylinders=200, heads=4,
                                      sectors_per_track=32))
    return build_world(server_config=server_cfg, **kwargs)


CHUNK = bytes(range(256)) * 32  # 8 KB


def _settle(engine, until=1.0):
    """Sleep until just past ``until`` (where tests schedule their faults),
    so boot/setup traffic never consumes a scheduled one-shot."""
    if engine.now < until:
        yield engine.timeout(until - engine.now + 0.001)


def _prepare_file(client, mount, path="/f"):
    """Create an 8 KB file and make it durable, all before t=1.0."""
    proc = Proc(client, mount=mount)

    def setup():
        fd = yield from proc.creat(path)
        yield from proc.write(fd, CHUNK)
        yield from proc.fsync(fd)
        return fd

    fd = client.run(setup())
    return proc, fd


# -- the adaptive timer -------------------------------------------------------

def test_rtt_estimator_initial_and_first_sample():
    est = RttEstimator(initial_rto=1.1)
    assert est.rto() == 1.1  # no samples: the configured initial
    est.observe(0.2)
    assert est.srtt == pytest.approx(0.2)
    assert est.rttvar == pytest.approx(0.1)
    assert est.rto() == pytest.approx(0.2 + 4 * 0.1)


def test_rtt_estimator_converges_on_steady_rtt():
    est = RttEstimator(initial_rto=1.1)
    for _ in range(100):
        est.observe(0.01)
    assert est.srtt == pytest.approx(0.01)
    # Variance decays toward zero; the floor keeps the timer sane.
    assert est.rto() == pytest.approx(RttEstimator.MIN_RTO)


def test_rtt_estimator_clamps_to_max():
    est = RttEstimator(initial_rto=1.0)
    est.observe(10.0)  # srtt 10 + 4 * rttvar 5 = 30 s
    assert est.rto() == RttEstimator.MAX_RTO


def test_rtt_estimator_validation():
    with pytest.raises(ValueError):
        RttEstimator(initial_rto=0)
    with pytest.raises(ValueError):
        RttEstimator().observe(-1)


# -- retransmission -----------------------------------------------------------

def test_dropped_request_is_retransmitted():
    plan = NetFaultPlan(scheduled=[(1.0, UP, "drop")])
    client, _server, mount = small_world(fault_plan=plan, timeo=0.3)
    proc, fd = _prepare_file(client, mount)
    client.pagecache.vnode_invalidate(client.run(mount.namei("/f")))

    def read_after_fault():
        yield from _settle(client.engine, 1.0)
        return (yield from proc.pread(fd, 8 * KB, 0))

    assert client.run(read_after_fault()) == CHUNK
    assert mount.stats["rpc_timeouts"] >= 1
    assert mount.stats["retransmits"] >= 1
    assert plan.stats["drops"] == 1


def test_karns_rule_skips_retransmitted_samples():
    plan = NetFaultPlan(scheduled=[(1.0, UP, "drop")])
    client, _server, mount = small_world(fault_plan=plan, timeo=0.3)
    proc, fd = _prepare_file(client, mount)
    client.pagecache.vnode_invalidate(client.run(mount.namei("/f")))
    samples_before = mount.stats["rtt_samples"]

    def read_after_fault():
        yield from _settle(client.engine, 1.0)
        return (yield from proc.pread(fd, 8 * KB, 0))

    client.run(read_after_fault())
    # The READ needed a retransmission, so its ambiguous reply must not
    # have fed the estimator.
    assert mount.stats["retransmits"] >= 1
    assert mount.stats["rtt_samples"] == samples_before


def test_clean_calls_feed_the_estimator():
    client, _server, mount = small_world()
    _prepare_file(client, mount)
    assert mount.stats["rtt_samples"] > 0
    assert mount.stats["retransmits"] == 0
    est = mount._estimator("WRITE")
    assert est.samples > 0 and est.srtt is not None


# -- the duplicate-request cache ----------------------------------------------

def test_duplicated_mutation_executes_once():
    plan = NetFaultPlan(scheduled=[(1.0, UP, "duplicate")])
    client, _server, mount = small_world(fault_plan=plan)
    _prepare_file(client, mount)
    server = mount.server

    def remove_after_fault():
        yield from _settle(client.engine, 1.0)
        yield from mount.unlink("/f")

    client.run(remove_after_fault())
    assert plan.stats["duplicates"] == 1
    # The copy was answered from cache or dropped mid-execution — never
    # re-executed (which would have manufactured a spurious ENOENT).
    assert (server.stats["drc_hits"] + server.stats["drc_in_progress_drops"]
            >= 1)
    assert server.stats["duplicate_executions"] == 0
    assert mount.stats["remove_enoent_swallowed"] == 0


def test_lost_remove_reply_answered_from_drc():
    plan = NetFaultPlan(scheduled=[(1.0, DOWN, "drop")])
    client, _server, mount = small_world(fault_plan=plan)
    proc, _fd = _prepare_file(client, mount)
    server = mount.server

    def remove_after_fault():
        yield from _settle(client.engine, 1.0)
        yield from proc.unlink("/f")

    client.run(remove_after_fault())  # no spurious ENOENT
    assert server.stats["drc_hits"] >= 1
    assert server.stats["duplicate_executions"] == 0
    assert mount.stats["remove_enoent_swallowed"] == 0
    with pytest.raises(FileNotFoundError_):
        client.run(mount.namei("/f"))


def test_lost_setattr_reply_answered_from_drc():
    """SETATTR (the truncate ``creat`` sends) mutates the file: its
    retransmission is answered from the DRC, not executed twice."""
    plan = NetFaultPlan(scheduled=[(1.0, DOWN, "drop")])
    client, server_system, mount = small_world(fault_plan=plan)
    _prepare_file(client, mount)
    server = mount.server
    vn = client.run(mount.namei("/f"))

    def truncate_after_fault():
        yield from _settle(client.engine, 1.0)
        yield from vn.truncate()

    client.run(truncate_after_fault())
    assert mount.stats["retransmits"] >= 1
    assert server.stats["drc_hits"] >= 1
    assert server.stats["setattr"] == 1
    assert server.stats["duplicate_executions"] == 0
    assert vn.size == 0
    assert server_system.run(server_system.mount.namei("/f")).size == 0


def test_setattr_executed_twice_without_drc_is_counted(monkeypatch):
    """With no finished reply kept, the retransmitted SETATTR re-executes:
    harmless for size 0, but SETATTR is a mutating op, so the campaigns'
    ``duplicate_executions`` counter sees it."""
    monkeypatch.setattr(NfsServer, "DRC_SIZE", 0)
    plan = NetFaultPlan(scheduled=[(1.0, DOWN, "drop")])
    client, _server, mount = small_world(fault_plan=plan)
    _prepare_file(client, mount)
    vn = client.run(mount.namei("/f"))

    def truncate_after_fault():
        yield from _settle(client.engine, 1.0)
        yield from vn.truncate()

    client.run(truncate_after_fault())
    assert mount.server.stats["setattr"] >= 2
    assert mount.server.stats["duplicate_executions"] >= 1
    assert vn.size == 0


def test_lost_remove_reply_without_drc_hits_the_heuristic(monkeypatch):
    """A DRC that keeps no finished reply (as when the REMOVE's entry has
    been evicted) shows the bug the DRC exists for: the retransmitted
    REMOVE re-executes and answers ENOENT; the client-side heuristic
    (ENOENT on a retransmitted REMOVE is success) papers over it.
    Evicting the entry at ``DRC_SIZE`` would take 256 more calls inside
    one retransmission timeout, so the size is patched to 0."""
    monkeypatch.setattr(NfsServer, "DRC_SIZE", 0)
    plan = NetFaultPlan(scheduled=[(1.0, DOWN, "drop")])
    client, _server, mount = small_world(fault_plan=plan)
    proc, _fd = _prepare_file(client, mount)
    server = mount.server

    def remove_after_fault():
        yield from _settle(client.engine, 1.0)
        yield from proc.unlink("/f")

    client.run(remove_after_fault())  # heuristic swallows the ENOENT
    assert server.stats["duplicate_executions"] >= 1
    assert mount.stats["remove_enoent_swallowed"] == 1
    with pytest.raises(FileNotFoundError_):
        client.run(mount.namei("/f"))


def test_genuine_enoent_still_raises():
    client, _server, mount = small_world()
    with pytest.raises(FileNotFoundError_):
        client.run(mount.unlink("/never-existed"))


# -- corruption ---------------------------------------------------------------

def test_corrupted_request_rejected_then_retransmitted():
    plan = NetFaultPlan(scheduled=[(1.0, UP, "corrupt")])
    client, _server, mount = small_world(fault_plan=plan, timeo=0.3)
    proc, fd = _prepare_file(client, mount)
    client.pagecache.vnode_invalidate(client.run(mount.namei("/f")))

    def read_after_fault():
        yield from _settle(client.engine, 1.0)
        return (yield from proc.pread(fd, 8 * KB, 0))

    assert client.run(read_after_fault()) == CHUNK
    assert mount.server.stats["corrupt_requests_rejected"] == 1
    assert mount.stats["retransmits"] >= 1


def test_corrupted_reply_never_reaches_the_page_cache():
    plan = NetFaultPlan(scheduled=[(1.0, DOWN, "corrupt")])
    client, _server, mount = small_world(fault_plan=plan, timeo=0.3)
    proc, fd = _prepare_file(client, mount)
    client.pagecache.vnode_invalidate(client.run(mount.namei("/f")))

    def read_after_fault():
        yield from _settle(client.engine, 1.0)
        return (yield from proc.pread(fd, 8 * KB, 0))

    # The damaged reply is discarded at the checksum; the retransmission
    # fetches clean bytes, so the content is still perfect.
    assert client.run(read_after_fault()) == CHUNK
    assert mount.stats["corrupt_replies_dropped"] == 1
    assert mount.stats["retransmits"] >= 1


def test_duplicated_reply_is_ignored():
    plan = NetFaultPlan(scheduled=[(1.0, DOWN, "duplicate")])
    client, _server, mount = small_world(fault_plan=plan)
    proc, fd = _prepare_file(client, mount)
    client.pagecache.vnode_invalidate(client.run(mount.namei("/f")))

    def read_after_fault():
        yield from _settle(client.engine, 1.0)
        return (yield from proc.pread(fd, 8 * KB, 0))

    assert client.run(read_after_fault()) == CHUNK
    assert mount.stats["duplicate_replies_ignored"] == 1


# -- mount semantics ----------------------------------------------------------

def test_soft_mount_times_out_with_etimedout_errno():
    plan = NetFaultPlan(partitions=[(1.0, 1e9)])
    client, _server, mount = small_world(fault_plan=plan, soft=True,
                                         timeo=0.2, retrans=3)
    proc = Proc(client, mount=mount)

    def doomed():
        yield from _settle(client.engine, 1.0)
        yield from proc.creat("/x")

    with pytest.raises(RpcTimeoutError):
        client.run(doomed())
    assert proc.errno == "ETIMEDOUT"
    assert mount.stats["major_timeouts"] == 1
    assert mount.stats["retransmits"] == 2  # retrans=3 transmissions total


def test_hard_mount_survives_a_finite_partition():
    plan = NetFaultPlan(partitions=[(1.0, 1.6)])
    client, _server, mount = small_world(fault_plan=plan, timeo=0.3)
    proc, fd = _prepare_file(client, mount)
    client.pagecache.vnode_invalidate(client.run(mount.namei("/f")))

    def read_through_partition():
        yield from _settle(client.engine, 1.0)
        return (yield from proc.pread(fd, 8 * KB, 0))

    assert client.run(read_through_partition()) == CHUNK
    assert client.now > 1.6  # it really waited the partition out
    assert mount.stats["retransmits"] >= 1
    assert plan.stats["partition_drops"] >= 1


@pytest.mark.parametrize("soft", [False, True], ids=["hard", "soft"])
def test_server_bug_is_not_a_lost_packet(soft):
    """A handler that crashes is a simulation bug, not a lost reply: the
    run stops on it, naming the transmission, instead of a hard mount
    retransmitting forever or a soft one reporting ETIMEDOUT."""
    client, _server, mount = small_world(soft=soft, timeo=0.2, retrans=5)
    proc, fd = _prepare_file(client, mount)
    client.pagecache.vnode_invalidate(client.run(mount.namei("/f")))

    def buggy_read(**_args):
        raise RuntimeError("server bug")
        yield  # a generator, like the handler it replaces

    mount.server._op_read = buggy_read
    engine = client.engine
    engine.process(proc.pread(fd, 8 * KB, 0), name="reader")
    with pytest.raises(SimulationError, match=r"'rpc-read-x\d+t1' crashed"
                       ) as caught:
        engine.run(until=engine.now + 60)  # bounds the hard mount's loop
    assert isinstance(caught.value.__cause__, RuntimeError)
    assert mount.stats["retransmits"] == 0


# -- write-behind failure propagation (satellite: deferred errors) ------------

def test_write_behind_failure_raised_by_next_write():
    plan = NetFaultPlan(partitions=[(1.0, 1e9)])
    client, _server, mount = small_world(fault_plan=plan, soft=True,
                                         timeo=0.2, retrans=2)
    proc, fd = _prepare_file(client, mount)
    vn = client.run(mount.namei("/f"))

    def fail_then_write_again():
        yield from _settle(client.engine, 1.0)
        yield from proc.pwrite(fd, CHUNK, 0)  # queues doomed write-behind
        yield client.engine.timeout(5)  # let the push time out
        yield from proc.pwrite(fd, CHUNK, 0)  # the deferred error lands here

    with pytest.raises(RpcTimeoutError):
        client.run(fail_then_write_again())
    assert proc.errno == "ETIMEDOUT"
    assert mount.stats["write_behind_errors"] >= 1
    assert mount.stats["deferred_errors_raised"] == 1
    assert vn.error is None  # raised once, then cleared
    # Satellite: the failed push released its throttle slot.
    assert vn.throttle.in_flight == 0


def test_write_behind_failure_raised_by_fsync_after_drain():
    plan = NetFaultPlan(partitions=[(1.0, 1e9)])
    client, _server, mount = small_world(fault_plan=plan, soft=True,
                                         timeo=0.2, retrans=2)
    proc, fd = _prepare_file(client, mount)
    vn = client.run(mount.namei("/f"))

    def fail_then_fsync():
        yield from _settle(client.engine, 1.0)
        yield from proc.pwrite(fd, CHUNK, 0)
        yield from proc.fsync(fd)  # drains, then surfaces the failure

    with pytest.raises(RpcTimeoutError):
        client.run(fail_then_fsync())
    assert proc.errno == "ETIMEDOUT"
    assert mount.stats["write_behind_errors"] >= 1
    assert mount.stats["deferred_errors_raised"] == 1
    assert vn.throttle.in_flight == 0  # drained despite the failure


# -- attribute handling (satellite: stale size) --------------------------------

def test_vnode_for_trusts_latest_attributes_when_idle():
    client, _server, mount = small_world()
    _prepare_file(client, mount)
    vn = client.run(mount.namei("/f"))
    assert vn.remote_size == 8 * KB
    # A remote truncation: the next reply reports a smaller size, and with
    # nothing in flight the client must believe it (the old max() would
    # have pinned the stale larger size forever).
    assert mount._vnode_for(vn.handle, 1 * KB) is vn
    assert vn.remote_size == 1 * KB


def test_vnode_for_keeps_local_size_while_writes_in_flight():
    client, _server, mount = small_world()
    _prepare_file(client, mount)
    vn = client.run(mount.namei("/f"))
    vn.throttle.take(1)  # a write-behind the server hasn't seen yet
    try:
        mount._vnode_for(vn.handle, 1 * KB)
        assert vn.remote_size == 8 * KB  # local view is more current
    finally:
        vn.throttle.credit(1)


# -- end to end over a persistently lossy wire ---------------------------------

def test_write_fsync_read_back_over_lossy_wire():
    plan = NetFaultPlan(seed=7, drop_p=0.1, duplicate_p=0.05, corrupt_p=0.05,
                        reorder_p=0.05)
    client, _server, mount = small_world(fault_plan=plan, timeo=0.3)
    proc = Proc(client, mount=mount)
    payload = bytes((j * 13) % 251 for j in range(64 * KB))

    def workload():
        fd = yield from proc.creat("/big")
        yield from proc.write(fd, payload)
        yield from proc.fsync(fd)

    client.run(workload())
    vn = client.run(mount.namei("/big"))
    client.pagecache.vnode_invalidate(vn)

    def read_back():
        fd = yield from proc.open("/big")
        return (yield from proc.read(fd, len(payload)))

    assert client.run(read_back()) == payload
    assert mount.stats["retransmits"] > 0  # the wire really was lossy
    assert mount.server.stats["duplicate_executions"] == 0


# -- the nfsd pool under interruption -------------------------------------------

def test_interrupted_queued_call_gives_its_nfsd_slot_back():
    """Every nfsd busy: the holders run, ``victim`` queues behind them and
    is interrupted there.  The slot must not stay charged to the call that
    will never run — at idle none is in use and a later call is served."""
    from repro.sim import Interrupt

    client, _server, mount = small_world()
    _prepare_file(client, mount)
    engine, server = client.engine, mount.server
    log = []

    def caller(tag):
        try:
            result = yield from server.call("LOOKUP", path="/f")
        except Interrupt:
            log.append((tag, "interrupted"))
        else:
            log.append((tag, result.value[1]))

    holders = [f"holder{i}" for i in range(NfsServer.NFSD_THREADS)]
    for tag in holders:
        engine.process(caller(tag))
    victim = engine.process(caller("victim"))
    engine.schedule(0.0, lambda _: victim.interrupt())
    engine.run()
    assert log == [("victim", "interrupted")] + [(tag, 8 * KB)
                                                 for tag in holders]
    assert (server._nfsds.in_use, server._nfsds.queue_length) == (0, 0)
    late = engine.process(caller("late"))
    engine.run()
    assert late.triggered and log[-1] == ("late", 8 * KB)
