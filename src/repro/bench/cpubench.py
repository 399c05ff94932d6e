"""The mmap CPU benchmark (figure 12).

"The benchmark is similar to IObench, in fact it shows identical I/O
rates, but uses the mmap interface to avoid the copying of data from the
kernel to the user...  The cpu times show the seconds used by the CPU to
read a 16MB file."
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.iobench import drop_cache
from repro.kernel.config import SystemConfig
from repro.kernel.syscalls import Proc
from repro.kernel.system import System
from repro.units import KB, MB

#: The paper's 16 MB file, and where it lives.
FILE_SIZE = 16 * MB
PATH = "/mmapbench.dat"


@dataclass
class CpuBenchResult:
    """Simulated CPU seconds to fault-read the file, plus context."""

    config: str
    cpu_seconds: float
    elapsed: float
    breakdown: dict

    @property
    def utilization(self) -> float:
        return self.cpu_seconds / self.elapsed if self.elapsed else 0.0


def run_cpu_bench(config: SystemConfig) -> CpuBenchResult:
    """Write the file, drop caches, then mmap-read it and meter the CPU."""
    system = System.booted(config)
    proc = Proc(system, name="cpubench")
    record = bytes(64 * KB)

    def setup():
        fd = yield from proc.open(PATH, create=True)
        for _ in range(FILE_SIZE // len(record)):
            yield from proc.write(fd, record)
        yield from proc.fsync(fd)
        return fd

    fd = system.run(setup(), name="cpubench-setup")
    drop_cache(system, PATH)

    system.cpu.reset_ledger()
    t0 = system.now

    def fault_read():
        yield from proc.mmap_read(fd, 0, FILE_SIZE)

    system.run(fault_read(), name="cpubench-read")
    return CpuBenchResult(
        config=config.name,
        cpu_seconds=system.cpu.system_time,
        elapsed=system.now - t0,
        breakdown=system.cpu.breakdown(),
    )
