"""Host-side optimisations may not change what the simulator computes.

The golden values below were recorded on the commit *before* the lean
dispatch path and the per-vnode page index went in (PR 11's tree).  They pin
the three things a reordered, merged or elided engine callback would move:
the engine step count, the final simulated clock, and every counter, gauge
and histogram in ``system.metrics.snapshot()``.  A change that makes the
engine cheaper per callback must reproduce all of them bit for bit.
"""

import hashlib
import json

import pytest

from repro.bench.iobench import IObench
from repro.disk.geometry import DiskGeometry
from repro.kernel import Proc, System, SystemConfig
from repro.sim import Engine, Semaphore, Signal
from repro.units import KB, MB


def _fingerprint(system):
    snap = json.dumps(system.metrics.snapshot(), sort_keys=True, default=repr)
    return (system.engine._steps, repr(system.now),
            hashlib.sha256(snap.encode()).hexdigest())


def _iobench(config):
    bench = IObench(config, file_size=1 * MB, random_ops=64, seed=1991)
    bench.run()
    return _fingerprint(bench.system)


def _churn():
    small = DiskGeometry.uniform(cylinders=200, heads=4, sectors_per_track=32)
    system = System.booted(SystemConfig.config_a().with_(geometry=small))

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
    "iobench_A": (13362, "4.686977142857143",
                  "6ef4b0b5abf37619951fc345104177125ea19aa8165e5a29d104ba7b71d4ec54"),
    "iobench_D": (17808, "6.157262857142857",
                  "11699c5a0e1c07d8c5c4752a6911ffb6b84b83e76b31edf3daf70290498b22c7"),
    "churn": (4077, "3.40012",
              "7ce1b701b8aa41ddd8474171ba0a1b36e28048d14c2865429177dd4b18675d39"),
}


@pytest.mark.parametrize("name,run", [
    ("iobench_A", lambda: _iobench(SystemConfig.config_a())),
    ("iobench_D", lambda: _iobench(SystemConfig.config_d())),
    ("churn", _churn),
])
def test_steps_clock_and_metrics_match_the_recorded_parent(name, run):
    assert run() == GOLDEN[name]


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
