"""Host-side optimisations may not change what the simulator computes.

The clocks and metrics hashes below were recorded on the commit *before*
the lean dispatch path and the per-vnode page index went in (PR 11's tree):
the final simulated clock, and every counter, gauge and histogram in
``system.metrics.snapshot()``.  A change that makes the engine cheaper must
reproduce them bit for bit.

The engine step count beside them is a **budget, not an oracle**: it is a
host cost (DESIGN.md §5.2 lets a heap hop go when its entry would be the
next one popped anyway), so lower is better and only a rise needs
explaining.  The counts here are those of the hop-eliding engine; PR 11's
tree took 13362 / 17808 / 4077 steps to the same clocks and hashes.

``TRACE_GOLDEN`` pins order where the elision guard actually falls back —
several processes, nfsd threads and cancelled retransmit timers, mirror
fan-out under the deadline scheduler — as the sha256 of the tracer's JSONL
(every span and record, in emission order, with its simulated times),
recorded on the last commit that took every hop.
"""

import hashlib
import json

import pytest

from repro.bench.iobench import IObench
from repro.disk.geometry import DiskGeometry
from repro.faults.netplan import NetFaultPlan
from repro.kernel import Proc, System, SystemConfig
from repro.nfs import build_world
from repro.sim import Engine, Semaphore, Signal
from repro.units import KB, MB

SMALL = DiskGeometry.uniform(cylinders=200, heads=4, sectors_per_track=32)


def _fingerprint(system):
    snap = json.dumps(system.metrics.snapshot(), sort_keys=True, default=repr)
    return (system.engine._steps, repr(system.now),
            hashlib.sha256(snap.encode()).hexdigest())


def _iobench(config):
    bench = IObench(config, file_size=1 * MB, random_ops=64, seed=1991)
    bench.run()
    return _fingerprint(bench.system)


def _churn():
    system = System.booted(SystemConfig.config_a().with_(geometry=SMALL))

    def worker(proc, tag):
        yield from proc.mkdir(f"/{tag}")
        for i in range(12):
            path = f"/{tag}/f{i}"
            fd = yield from proc.creat(path)
            yield from proc.write(fd, bytes([i + 1]) * ((i % 5 + 1) * 3 * KB))
            if i % 3 == 0:
                yield from proc.fsync(fd)
            yield from proc.close(fd)
            if i % 4 == 1:
                yield from proc.unlink(path)
            elif i % 4 == 2:
                yield from proc.rename(path, f"/{tag}/r{i}")
        return (yield from proc.readdir(f"/{tag}"))

    listings = system.run_all([worker(Proc(system), "a"),
                               worker(Proc(system), "b")])
    system.sync()
    assert [len(entries) for entries in listings] == [11, 11]
    return _fingerprint(system)


GOLDEN = {
    "iobench_A": (430, "4.686977142857143",
                  "6ef4b0b5abf37619951fc345104177125ea19aa8165e5a29d104ba7b71d4ec54"),
    "iobench_D": (1377, "6.157262857142857",
                  "11699c5a0e1c07d8c5c4752a6911ffb6b84b83e76b31edf3daf70290498b22c7"),
    "churn": (450, "3.40012",
              "7ce1b701b8aa41ddd8474171ba0a1b36e28048d14c2865429177dd4b18675d39"),
}


@pytest.mark.parametrize("name,run", [
    ("iobench_A", lambda: _iobench(SystemConfig.config_a())),
    ("iobench_D", lambda: _iobench(SystemConfig.config_d())),
    ("churn", _churn),
])
def test_steps_clock_and_metrics_match_the_recorded_parent(name, run):
    steps, clock, metrics = run()
    budget, golden_clock, golden_metrics = GOLDEN[name]
    assert (clock, metrics) == (golden_clock, golden_metrics)
    assert steps <= budget


def _trace_print(now, *tracers):
    digest = hashlib.sha256()
    for tracer in tracers:
        digest.update(tracer.to_jsonl().encode())
    return repr(now), digest.hexdigest()


def _traced_churn():
    system = System.booted(SystemConfig.config_a().with_(geometry=SMALL))
    system.tracer.enabled = True

    def worker(proc, tag, n):
        yield from proc.mkdir(f"/{tag}")
        for i in range(n):
            path = f"/{tag}/f{i}"
            fd = yield from proc.creat(path)
            yield from proc.write(fd, bytes([i + 1]) * ((i + n) % 5 + 1) * 3 * KB)
            if i % 3 == 0:
                yield from proc.fsync(fd)
            yield from proc.close(fd)
            if i % 4 == 1:
                yield from proc.unlink(path)
        return (yield from proc.readdir(f"/{tag}"))

    system.run_all([worker(Proc(system), tag, 6 + k)
                    for k, tag in enumerate("abcd")])
    system.sync()
    return _trace_print(system.now, system.tracer)


def _traced_lossy_nfs():
    plan = NetFaultPlan(seed=7, drop_p=0.08, duplicate_p=0.04, reorder_p=0.04)
    client, server, mount = build_world(
        server_config=SystemConfig.config_a().with_(geometry=SMALL),
        fault_plan=plan, timeo=0.05)
    client.tracer.enabled = server.tracer.enabled = True
    proc = Proc(client, mount=mount)

    def job():
        fd = yield from proc.open("/f", create=True)
        for i in range(24):
            yield from proc.write(fd, bytes([i + 1]) * 8 * KB)
        yield from proc.fsync(fd)
        yield from proc.close(fd)
        return (yield from proc.stat_size("/f"))

    assert client.run(job(), name="nfs-job") == 24 * 8 * KB
    # Retransmit timers were armed, lost races and were cancelled mid-flight.
    assert mount.stats["retransmits"] > 0
    return _trace_print(client.now, client.tracer, server.tracer)


def _traced_mirror_deadline():
    config = SystemConfig.config_a().with_(layout="mirror:2",
                                           scheduler="deadline")
    bench = IObench(config, file_size=1 * MB, random_ops=64, seed=1991,
                    trace_phase="*")
    bench.run()
    return _trace_print(bench.system.now, bench.system.tracer)


TRACE_GOLDEN = {
    "churn4": ("3.5667866666666668",
               "cc0f73edeb780345fd841364e431831af51759c777fc578285bca45073cb95af"),
    "lossy_nfs": ("1.1612362999999999",
                  "fd61fc14a04c8668a94ef9e13932f80243755f44ffedd2670a4a537c04fb49c8"),
    "mirror_deadline": ("4.6536438095238095",
                        "c6a935b1b76f220f0a94e1a60e59aaf31776aa64a662652be473bb1366eac4b4"),
}


@pytest.mark.parametrize("name,run", [
    ("churn4", _traced_churn),
    ("lossy_nfs", _traced_lossy_nfs),
    ("mirror_deadline", _traced_mirror_deadline),
])
def test_trace_order_matches_the_recorded_parent(name, run):
    assert run() == TRACE_GOLDEN[name]


def test_lazy_event_names_read_as_before():
    eng = Engine()
    pending = eng.timeout(1.5)
    assert repr(pending) == "<Timeout 'timeout(1.5)' pending>"
    fired = eng.timeout(0.00025, "x")
    eng.run()
    assert repr(fired) == "<Timeout 'timeout(0.00025)' ok('x')>"
    assert fired.name == "timeout(0.00025)"
    with pytest.raises(RuntimeError, match=r"^event 'timeout\(1\.5\)' already triggered$"):
        pending.succeed()
    assert Semaphore(eng, 3, name="cpu.slots").acquire(2).name == "cpu.slots.acquire(2)"
    assert Signal(eng, name="memwait").wait().name == "memwait.wait"
