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

import random
from dataclasses import dataclass, field
from typing import Any

from repro.kernel.config import SystemConfig
from repro.kernel.syscalls import Proc
from repro.kernel.system import System
from repro.units import KB, MB, kb_per_sec

PHASES = ("FSR", "FSU", "FSW", "FRR", "FRU")


@dataclass
class IObenchResult:
    """KB/second per phase for one configuration."""

    config: str
    rates: dict[str, float] = field(default_factory=dict)
    cpu_util: dict[str, float] = field(default_factory=dict)
    #: Request-pipeline report: scheduler name, driver queue-wait/service
    #: histograms, queue-depth gauge, and per-kind request latencies.
    pipeline: dict[str, Any] = field(default_factory=dict)

    def __getitem__(self, phase: str) -> float:
        return self.rates[phase]


class IObench:
    """Run the IObench phases against one system configuration."""

    def __init__(self, config: SystemConfig, file_size: int = 16 * MB,
                 record_size: int = 8 * KB, random_ops: int = 2048,
                 seed: int = 1991, path: str = "/iobench.dat",
                 trace_phase: "str | None" = None,
                 sanitize: "bool | None" = None,
                 telemetry_interval: "float | None" = None,
                 telemetry_namespaces: "list[str] | None" = None):
        if file_size % record_size:
            raise ValueError("file size must be a multiple of the record size")
        if trace_phase is not None and trace_phase not in PHASES + ("*",):
            raise ValueError(f"trace_phase must be one of {PHASES} or '*'")
        self.config = config
        self.file_size = file_size
        self.record_size = record_size
        self.random_ops = random_ops
        self.seed = seed
        self.path = path
        #: Enable the tracer (spans + records) for exactly this phase, so
        #: the trace stays bounded: one phase's span trees, not five.
        #: ``"*"`` traces every phase — what ``python -m repro bench``
        #: needs to attribute the whole run's time, at ~5x trace volume.
        self.trace_phase = trace_phase
        #: Force the invariant sanitizer on (True) or off (False) for this
        #: run; None keeps the REPRO_SANITIZE environment default.
        self.sanitize = sanitize
        #: Sample the metrics registry every this many simulated seconds
        #: during the run (None = no telemetry); the recorder lands on
        #: ``self.telemetry`` for series reads after :meth:`run`.
        self.telemetry_interval = telemetry_interval
        self.telemetry_namespaces = telemetry_namespaces
        self.telemetry = None
        self.system: System | None = None
        self._phase_reports: dict[str, Any] = {}

    # -- phases ---------------------------------------------------------------
    def _timed(self, system: System, gen, nbytes: int,
               result: IObenchResult, phase: str) -> None:
        tracing = self.trace_phase in ("*", phase)
        if tracing:
            system.tracer.enabled = True
        # Snapshot the registry so this phase's table reports only its own
        # samples — before this, every phase's latencies and counts leaked
        # into the next phase's report.
        snap = system.requests.snapshot()
        t0 = system.now
        cpu0 = system.cpu.system_time
        system.run(gen, name=f"iobench-{phase}")
        elapsed = system.now - t0
        if tracing:
            system.tracer.enabled = False
        result.rates[phase] = kb_per_sec(nbytes, elapsed)
        result.cpu_util[phase] = (system.cpu.system_time - cpu0) / elapsed
        self._phase_reports[phase] = system.requests.report_since(snap)
        # Each phase end is a quiesce point: the workload drained the engine.
        system.sanitizer.checkpoint(f"phase_{phase}", idle=True)

    def _pipeline_report(self, system: System) -> dict[str, Any]:
        """Per-layer pipeline stats for the whole run (all phases)."""
        driver = system.driver
        report = {
            "scheduler": driver.scheduler_name,
            "layout": system.volume.describe(),
            "queue_depth": {
                "avg": driver.queue_depth.average(),
                "max": driver.queue_depth.maximum,
            },
            "queue_wait": driver.wait_hist.summary(),
            "service": driver.service_hist.summary(),
            "requests": system.requests.report(),
            "phases": dict(self._phase_reports),
        }
        members = system.volume.members
        if len(members) > 1:
            # Per-member breakdown: shows how evenly the volume spread the
            # load (stripe balance, mirror read policy) and each member's
            # own queue behaviour.
            report["members"] = [
                {
                    "name": m.driver.name,
                    "requests": m.driver.stats["requests"],
                    "bytes": m.driver.stats["bytes"],
                    # A member can finish a run with zero I/Os (a concat
                    # tail the file never reached, a mirror member the
                    # read policy skipped) — its average is undefined,
                    # not a ZeroDivisionError.  Renderers show "-".
                    "avg_io_bytes": (
                        m.driver.stats["bytes"] / m.driver.stats["requests"]
                        if m.driver.stats["requests"] else None
                    ),
                    "queue_depth": {
                        "avg": m.driver.queue_depth.average(),
                        "max": m.driver.queue_depth.maximum,
                    },
                    "service": m.driver.service_hist.summary(),
                }
                for m in members
            ]
        return report

    def _seq_write(self, proc: Proc, update: bool):
        record = bytes(self.record_size)

        def work():
            fd = yield from proc.open(self.path, create=not update)
            yield from proc.lseek(fd, 0)
            for _ in range(self.file_size // self.record_size):
                yield from proc.write(fd, record)
            yield from proc.fsync(fd)
            yield from proc.close(fd)

        return work()

    def _seq_read(self, proc: Proc):
        def work():
            fd = yield from proc.open(self.path)
            while True:
                data = yield from proc.read(fd, self.record_size)
                if not data:
                    break
            yield from proc.close(fd)

        return work()

    def _random_ops(self, proc: Proc, write: bool):
        rng = random.Random(self.seed)
        records = self.file_size // self.record_size
        offsets = [rng.randrange(records) * self.record_size
                   for _ in range(self.random_ops)]
        payload = bytes(self.record_size)

        def work():
            fd = yield from proc.open(self.path)
            for offset in offsets:
                if write:
                    yield from proc.pwrite(fd, payload, offset)
                else:
                    yield from proc.pread(fd, self.record_size, offset)
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
        if self.sanitize is not None:
            system.sanitizer.enabled = self.sanitize
        if self.telemetry_interval is not None:
            self.telemetry = system.start_telemetry(
                self.telemetry_interval, self.telemetry_namespaces)
        self.system = system
        proc = Proc(system, name="iobench")
        result = IObenchResult(config=self.config.name)
        self._phase_reports.clear()

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
        nbytes = self.random_ops * self.record_size
        self._timed(system, self._random_ops(proc, write=False), nbytes,
                    result, "FRR")
        # FRU: random updates.
        self._timed(system, self._random_ops(proc, write=True), nbytes,
                    result, "FRU")
        result.pipeline = self._pipeline_report(system)
        return result


def format_member_table(members: "list[dict[str, Any]]") -> str:
    """Render the per-member pipeline rows as a fixed-width table.

    ``avg_io_bytes`` is None for a member that served no I/O (see
    :meth:`IObench._pipeline_report`); it renders as ``-``.
    """
    lines = [f"  {'member':8s} {'requests':>9s} {'bytes':>12s} "
             f"{'avg io':>9s} {'qdepth':>7s}"]
    for m in members:
        avg = m.get("avg_io_bytes")
        avg_text = "-" if avg is None else f"{avg / KB:.1f}K"
        lines.append(f"  {m['name']:8s} {m['requests']:>9.0f} "
                     f"{m['bytes']:>12.0f} {avg_text:>9s} "
                     f"{m['queue_depth']['avg']:>7.2f}")
    return "\n".join(lines)


def run_configs(names: "list[str]" = list("ABCD"),
                scheduler: "str | None" = None,
                layout: "str | None" = None,
                **kwargs) -> "list[IObenchResult]":
    """Run IObench over several figure 9 configurations.

    ``scheduler`` overrides each configuration's disk scheduler (elevator /
    fifo / deadline); None keeps the configs' own choice.  ``layout``
    overrides the block-device layout (e.g. ``stripe:4:chunk=64k``); None
    keeps the default single disk.
    """
    return [IObench(SystemConfig.preset(name, scheduler, layout),
                    **kwargs).run()
            for name in names]
