"""Crash-consistency campaigns: seeded sweeps of power-cut points.

A campaign turns the one-off crash test (stop the engine, fsck the store)
into a systematic experiment: run a write workload, cut power at a seeded
random instant — tearing whatever write was in flight at a sector boundary
— then take the frozen durable bytes, run ``fsck`` in repair mode, verify
the repaired file system is clean, remount it, and check every byte the
workload had been *promised* was durable (fsync had returned).

Determinism: the cut instants come from ``random.Random(seed)`` over the
workload's fault-free duration, the simulation itself is deterministic,
and fsck is a pure function of the bytes — so the same seed produces
byte-identical :class:`CampaignStats` on every run.

The accounting contract:

* ``silent_corruptions`` — fsynced content missing or wrong after repair
  and remount.  This must be zero: it would mean either the disk model
  broke the stable-storage promise or fsck "repaired" live data away.
* ``data_bytes_lost`` — bytes the workload had written but that were not
  yet covered by a completed fsync when the power died.  Losing these is
  *expected* (that is what fsync is for); the stat sizes the exposure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Generator

from repro.errors import ReproError
from repro.faults.harness import (
    Campaign, SweepStats, force_sanitizer, read_file,
)
from repro.faults.plan import FaultPlan
from repro.kernel.config import SystemConfig
from repro.kernel.syscalls import Proc
from repro.kernel.system import System
from repro.sim.engine import SimulationError
from repro.sim.events import EventFailed
from repro.sim.invariants import SanitizerError
from repro.sim.trace import TraceRecord
from repro.ufs.fsck import fsck
from repro.units import KB


@dataclass
class CampaignStats(SweepStats):
    """Aggregated results of one sweep; byte-identical for a given seed."""

    MUST_BE_ZERO = ("silent_corruptions",)

    cuts: int = 0
    faults_injected: int = 0
    torn_writes: int = 0
    cuts_with_damage: int = 0
    inconsistencies_detected: int = 0
    repairs_applied: int = 0
    clean_after_repair: int = 0
    silent_corruptions: int = 0
    data_bytes_lost: int = 0

    def holds(self) -> bool:
        return self.clean_after_repair == self.cuts


class CrashCampaign(Campaign):
    """Run the workload, cut power at ``cuts`` seeded instants, and make
    fsck answer for every inconsistency the torn writes produced."""

    name = "faultcampaign"

    def __init__(self, cuts: int = 50, seed: int = 0, nfiles: int = 10,
                 file_bytes: int = 48 * KB,
                 config: "SystemConfig | None" = None, trace: bool = False,
                 sanitize: "bool | None" = None):
        if cuts < 1:
            raise ValueError("cuts must be >= 1")
        super().__init__(CampaignStats(), seed, config, sanitize)
        self.cuts = cuts
        self.nfiles = nfiles
        self.file_bytes = file_bytes
        self.trace = trace
        self.trace_records: "list[TraceRecord]" = []

    # -- the doomed workload -------------------------------------------------
    def _payload(self, i: int) -> bytes:
        return bytes((i * 37 + j * 11) % 251 for j in range(self.file_bytes))

    def _workload(self, proc: Proc, state: dict) -> Generator[Any, Any, None]:
        """Create/write/fsync/unlink churn; records what fsync promised.

        ``state['durable']`` holds path -> content for every file whose
        fsync *returned* before the cut: the write-through disk guarantees
        those bytes whatever happens next.  Everything else is at risk.
        """
        yield from proc.mkdir("/work")
        for i in range(self.nfiles):
            path = f"/work/f{i}"
            payload = self._payload(i)
            fd = yield from proc.creat(path)
            yield from proc.write(fd, payload)
            state["written"] += len(payload)
            if i % 2 == 0:
                yield from proc.fsync(fd)
                state["durable"][path] = payload
            yield from proc.close(fd)
            if i % 4 == 3:
                # Churn: removing a (never-fsynced) earlier file exercises
                # the synchronous-metadata ordering under crashes too.
                yield from proc.unlink(f"/work/f{i - 2}")
                state["durable"].pop(f"/work/f{i - 2}", None)
                state["unlinked"] += 1

    def _one_run(self, cut_time: "float | None"):
        """Boot, run the workload, (maybe) lose power.  Returns the frozen
        system, its plan, and the workload's durability bookkeeping."""
        plan = (FaultPlan(power_cut_time=cut_time)
                if cut_time is not None else None)
        state = {"durable": {}, "written": 0, "unlinked": 0, "booted_at": 0.0}
        system = System(self.config, fault_plan=plan)
        force_sanitizer(self.sanitize, system)
        system.mkfs()
        try:
            system.run(system.mount_fs())
            state["booted_at"] = system.now
            if self.trace:
                system.tracer.enabled = True
            proc = Proc(system)
            system.run(self._workload(proc, state), name="campaign-workload")
            system.sync()
        except SanitizerError:
            # Invariant violations are simulation bugs, never modelled
            # faults — a power cut must not bury them.
            raise
        except (ReproError, SimulationError, EventFailed):
            # The machine lost power mid-flight: expected.  (EventFailed is
            # the engine's envelope for a failed I/O reaching a path that
            # does not unwrap it, e.g. the mount-wide sync.)  The store
            # holds exactly the sectors that became durable before the cut.
            pass
        return system, plan, state

    # -- the sweep ---------------------------------------------------------
    def run(self) -> CampaignStats:
        # Rehearsal: learn the workload's fault-free duration (and the boot
        # time) so the cut instants land inside the interesting window.
        rehearsal, _, r_state = self._one_run(None)
        # The rehearsal ran fault-free and synced: the deepest quiesce point
        # a campaign has.  The deep pass runs fsck's walkers over the store.
        rehearsal.sanitizer.checkpoint("campaign_rehearsal", idle=True,
                                       deep=True)
        t_start, t_end = r_state["booted_at"], rehearsal.now
        rng = random.Random(self.seed)
        cut_times = [rng.uniform(t_start, t_end) for _ in range(self.cuts)]

        s = self.stats
        for cut in cut_times:
            system, plan, state = self._one_run(cut)
            s.cuts += 1
            s.faults_injected += int(plan.stats["power_faults"])
            s.torn_writes += int(plan.stats["torn_writes"])

            store = system.store
            report = fsck(store, repair=True)
            s.inconsistencies_detected += len(report.findings)
            s.cuts_with_damage += int(bool(report.findings))
            s.repairs_applied += len(report.repairs)
            verify = fsck(store)
            s.clean_after_repair += int(verify.clean)

            # Remount the repaired bytes and hold fsync to its word.
            durable = state["durable"]
            survivor = System.remounted(store, self.config)
            force_sanitizer(self.sanitize, survivor)
            proc = Proc(survivor)
            cut_corruptions = 0
            for path in sorted(durable):
                expect = durable[path]
                try:
                    got = survivor.run(
                        read_file(proc, path, len(expect)),
                        name="campaign-verify")
                except SanitizerError:
                    raise
                except (ReproError, SimulationError):
                    got = None
                if got != expect:
                    cut_corruptions += 1
            s.silent_corruptions += cut_corruptions
            # The survivor is quiesced and its store fsck-repaired: a full
            # (deep) sweep must find the machine and the disk consistent.
            survivor.sanitizer.checkpoint("campaign_survivor", idle=True,
                                          deep=True)
            s.data_bytes_lost += state["written"] - sum(
                len(v) for v in durable.values())
            self.records.append({
                "cut_index": len(self.records),
                "cut_time": cut,
                "faults_injected": int(plan.stats["power_faults"]),
                "torn_writes": int(plan.stats["torn_writes"]),
                "findings": [str(f) for f in report.findings],
                "repairs": [str(r) for r in report.repairs],
                "clean_after_repair": bool(verify.clean),
                "silent_corruptions": cut_corruptions,
                "durable_files_checked": len(durable),
                "data_bytes_at_risk": state["written"] - sum(
                    len(v) for v in durable.values()),
            })
            if self.trace:
                self.trace_records.extend(system.tracer.records)
                self.trace_records.append(TraceRecord(
                    cut, "power_cut",
                    {"findings": len(report.findings),
                     "repairs": len(report.repairs),
                     "clean_after_repair": verify.clean},
                ))
        return s
