"""IObench: the paper's transfer-rate benchmark.

"The columns are headed by a three letter name indicating the type of I/O.
The first letter means File system, the second letter indicates Sequential
or Random, and the third letter indicates Read, Write, or Update.  The
difference between write and update is that in the update case the file's
blocks have already been allocated."

Methodology notes (documented deviations are in EXPERIMENTS.md):

* Each phase's clock includes making the data durable (final fsync/drain),
  so asynchronous writes cannot hide the disk.
* Before the sequential-read phase the file's cached pages are dropped,
  standing in for the unmount/remount benchmarks of the era used between
  phases (the 16 MB file on an 8 MB machine mostly self-evicts anyway).
* Random phases use a seeded RNG; offsets are 8 KB-aligned records within
  the file, the record size IObench reports in KB/second.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import count

from repro.kernel.config import SystemConfig
from repro.kernel.syscalls import Proc
from repro.kernel.system import System
from repro.units import KB, MB, kb_per_sec

PHASES = ("FSR", "FSU", "FSW", "FRR", "FRU")
#: The record every phase reads or writes, and the grain of random offsets.
RECORD = 8 * KB


@dataclass
class IObenchResult:
    """KB/second and CPU utilisation per phase for one configuration."""

    config: str
    rates: dict[str, float] = field(default_factory=dict)
    cpu_util: dict[str, float] = field(default_factory=dict)

    def __getitem__(self, phase: str) -> float:
        return self.rates[phase]


class IObench:
    """Run the IObench phases against one system configuration."""

    path = "/iobench.dat"

    def __init__(self, config: SystemConfig, file_size: int = 16 * MB,
                 random_ops: int = 2048, seed: int = 1991,
                 trace_phase: "str | None" = None,
                 telemetry_interval: "float | None" = None,
                 telemetry_namespaces: "list[str] | None" = None):
        # A phase of zero operations has no rate.
        if file_size < RECORD or file_size % RECORD:
            raise ValueError(f"file size must be a positive multiple of "
                             f"{RECORD // KB} KB, not {file_size} bytes")
        if random_ops < 1:
            raise ValueError(f"random ops must be at least 1, not "
                             f"{random_ops}")
        if trace_phase is not None and trace_phase not in PHASES + ("*",):
            raise ValueError(f"trace_phase must be one of {PHASES} or '*'")
        if telemetry_interval is not None and not (
                0 < telemetry_interval < math.inf):
            raise ValueError(f"telemetry interval must be finite and > 0, "
                             f"not {telemetry_interval:g} s")
        self.config = config
        self.file_size = file_size
        self.random_ops = random_ops
        self.seed = seed
        #: Enable the tracer (spans + records) for exactly this phase, so
        #: the trace stays bounded: one phase's span trees, not five.
        #: ``"*"`` traces every phase — what ``run_bench``
        #: needs to attribute the whole run's time, at ~5x trace volume.
        self.trace_phase = trace_phase
        #: Sample the metrics registry every this many simulated seconds
        #: during the run (None = no telemetry); the recorder lands on
        #: ``self.telemetry`` for series reads after :meth:`run`.
        self.telemetry_interval = telemetry_interval
        self.telemetry_namespaces = telemetry_namespaces
        self.telemetry = None
        self.system: System | None = None

    # -- phases ---------------------------------------------------------------
    def _timed(self, system: System, gen, nbytes: int,
               result: IObenchResult, phase: str) -> None:
        tracing = self.trace_phase in ("*", phase)
        if tracing:
            system.tracer.enabled = True
        t0 = system.now
        cpu0 = system.cpu.system_time
        system.run(gen, name=f"iobench-{phase}")
        elapsed = system.now - t0
        if tracing:
            system.tracer.enabled = False
        result.rates[phase] = kb_per_sec(nbytes, elapsed)
        result.cpu_util[phase] = (system.cpu.system_time - cpu0) / elapsed
        # Each phase end is a quiesce point: the workload drained the engine.
        system.sanitizer.checkpoint(f"phase_{phase}", idle=True)

    def _seq_write(self, proc: Proc, update: bool):
        record = bytes(RECORD)

        def work():
            fd = yield from proc.open(self.path, create=not update)
            yield from proc.lseek(fd, 0)
            for _ in range(self.file_size // RECORD):
                yield from proc.write(fd, record)
            yield from proc.fsync(fd)
            yield from proc.close(fd)

        return work()

    def _seq_read(self, proc: Proc):
        def work():
            fd = yield from proc.open(self.path)
            while True:
                data = yield from proc.read(fd, RECORD)
                if not data:
                    break
            yield from proc.close(fd)

        return work()

    def _random_ops(self, proc: Proc, write: bool):
        rng = random.Random(self.seed)
        records = self.file_size // RECORD
        offsets = [rng.randrange(records) * RECORD
                   for _ in range(self.random_ops)]
        payload = bytes(RECORD)

        def work():
            fd = yield from proc.open(self.path)
            for offset in offsets:
                if write:
                    yield from proc.pwrite(fd, payload, offset)
                else:
                    yield from proc.pread(fd, RECORD, offset)
            if write:
                yield from proc.fsync(fd)
            yield from proc.close(fd)

        return work()

    def _drop_file_cache(self, system: System):
        vn = system.run(system.mount.namei(self.path), name="lookup")
        system.pagecache.vnode_drop_clean(vn)
        vn.inode.readahead.reset()

    # -- the full run ------------------------------------------------------------
    def run(self) -> IObenchResult:
        """FSW, FSU, FSR, FRR, FRU — in an order that sets up each phase."""
        system = System.booted(self.config)
        if self.telemetry_interval is not None:
            self.telemetry = system.start_telemetry(
                self.telemetry_interval, self.telemetry_namespaces)
        self.system = system
        proc = Proc(system, name="iobench")
        result = IObenchResult(config=self.config.name)

        # FSW: sequential write with allocation.
        self._timed(system, self._seq_write(proc, update=False),
                    self.file_size, result, "FSW")
        # FSU: sequential update (blocks already allocated).
        self._timed(system, self._seq_write(proc, update=True),
                    self.file_size, result, "FSU")
        # FSR: sequential read, cold cache.
        self._drop_file_cache(system)
        self._timed(system, self._seq_read(proc), self.file_size,
                    result, "FSR")
        # FRR: random reads.
        self._drop_file_cache(system)
        nbytes = self.random_ops * RECORD
        self._timed(system, self._random_ops(proc, write=False), nbytes,
                    result, "FRR")
        # FRU: random updates.
        self._timed(system, self._random_ops(proc, write=True), nbytes,
                    result, "FRU")
        return result


def pipeline_lines(metrics: dict) -> "list[str]":
    """A machine's request latency per kind and, on a multi-member volume,
    one line per member, from its ``metrics.snapshot()``.  A member that
    served no I/O (a concat tail never reached, a mirror leg the read
    policy skipped) has no average I/O size: ``-``."""
    lines = [f"  {kind:10s} n={s['count']:<6.0f} "
             f"mean={s['mean'] * 1e3:8.3f}ms p95={s['p95'] * 1e3:8.3f}ms "
             f"p99={s['p99'] * 1e3:8.3f}ms"
             for kind, s in metrics["requests.latency"].items()]
    if "disk.m0.driver" in metrics:
        lines.append(f"  {'member':8s} {'requests':>9s} {'bytes':>12s} "
                     f"{'avg io':>9s} {'qdepth':>7s}")
    for i in count():
        driver = metrics.get(f"disk.m{i}.driver")
        if driver is None:
            return lines
        n, nbytes = driver.get("requests", 0), driver.get("bytes", 0)
        avg = f"{nbytes / n / KB:.1f}K" if n else "-"
        depth = metrics[f"disk.m{i}.driver.queue_depth"]["avg"]
        lines.append(f"  {f'm{i}':8s} {n:>9.0f} {nbytes:>12.0f} {avg:>9s} "
                     f"{depth:>7.2f}")
