"""A MusBus-like multi-user timesharing workload.

The paper: "the benchmark, MusBus, was spending most of its time sleeping
and the rest of the time running small programs such as date(1) and ls(1).
The largest I/O transfer done by MusBus was around 8KB...  In other words,
MusBus didn't move any substantial amount of data" — hence the time-sharing
numbers "improved only slightly".

Each simulated user loops over a script: think (sleep), run a small program
(CPU burst + context switch), create a small file, read it back, list the
directory, delete the file.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.kernel.config import SystemConfig
from repro.kernel.syscalls import Proc
from repro.kernel.system import System
from repro.units import KB

#: Simulated users, and the scripts each runs.
USERS = 4
ITERATIONS = 8
#: Mean think time before each script, drawn uniformly in [0.5, 1.5] x.
THINK_TIME = 0.2
SEED = 7


@dataclass
class MusbusResult:
    """Elapsed simulated time for the whole multi-user run."""

    config: str
    elapsed: float
    cpu_util: float

    @property
    def throughput(self) -> float:
        """Script iterations per simulated second."""
        return USERS * ITERATIONS / self.elapsed


def run_musbus(config: SystemConfig) -> MusbusResult:
    """Run the workload; returns timing for the whole mix."""
    system = System.booted(config)
    cpu = system.cpu
    rng = random.Random(SEED)

    def user(index: int):
        proc = Proc(system, name=f"user{index}")
        yield from proc.mkdir(f"/u{index}")
        for it in range(ITERATIONS):
            # Think.
            yield from system.engine.sleep(THINK_TIME * rng.uniform(0.5, 1.5))
            # Run a small program (fork/exec + a little computation).
            yield from cpu.work("exec", cpu.costs.context_switch * 4)
            yield from cpu.work("user", 0.005)
            # Small file churn: the biggest transfer is one block.
            path = f"/u{index}/tmp{it}"
            fd = yield from proc.creat(path)
            yield from proc.write(fd, bytes(rng.randrange(1, 9) * KB))
            yield from proc.fsync(fd)
            yield from proc.close(fd)
            fd = yield from proc.open(path)
            yield from proc.read(fd, 8 * KB)
            yield from proc.close(fd)
            yield from proc.readdir(f"/u{index}")
            yield from proc.unlink(path)

    t0 = system.now
    system.run_all([user(i) for i in range(USERS)])
    elapsed = system.now - t0
    return MusbusResult(
        config=config.name, elapsed=elapsed,
        cpu_util=cpu.system_time / elapsed,
    )
