"""Mirror-member-death campaigns: seeded kills of one RAID-1 member.

The crash campaigns answer for torn writes and lossy wires; this one makes
the mirror answer for a *dead disk*.  Each seeded run boots a ``mirror:2``
volume with a volatile write cache and checksums, schedules one member to
die early in the run (:class:`~repro.faults.plan.FaultPlan` ``die_at``),
then drives a create/write/fsync workload through the death and verifies
the redundancy invariants that make a mirror worth its second disk — each
an ``exact(0)`` cell of the ``memberkill`` experiment row: the kill fires
(an inert schedule would make the sweep vacuous); every fsynced file reads
back through the degraded volume; the failures land on the victim's
health, not the survivor's; a clone of the *survivor's* store, booted as a
plain single-disk machine, is fsck-clean and serves every acknowledged
byte; resync from the survivor ends byte-identical, verified against the
integrity region; and the repaired machine passes fsck and a deep
sanitizer checkpoint.

Determinism: victim choice, death time, and file sizes all derive from
``random.Random(seed)``, and the engine is deterministic — the same seed
produces the same kill and the same verdict every time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Generator

from repro.faults.harness import Campaign, force_sanitizer
from repro.faults.plan import FaultPlan
from repro.kernel.config import SystemConfig
from repro.kernel.syscalls import Proc
from repro.kernel.system import System
from repro.ufs.fsck import fsck
from repro.units import KB


def _read_chunked(proc: Proc, path: str) -> Generator[Any, Any, bytes]:
    """Open, read to EOF 32 KB at a time, close."""
    fd = yield from proc.open(path)
    data = b""
    while True:
        chunk = yield from proc.read(fd, 32 * KB)
        if not chunk:
            break
        data += chunk
    yield from proc.close(fd)
    return data


@dataclass
class MemberKillStats:
    """Aggregated results of one sweep; byte-identical for a given seed."""

    runs: int = 0
    kills: int = 0
    acked_files: int = 0
    acked_bytes: int = 0
    degraded_files: int = 0
    resync_sectors: int = 0
    # -- invariants: the memberkill row's exact(0) cells -------------------
    inert_kills: int = 0
    lost_acked_files: int = 0
    degraded_read_failures: int = 0
    health_misattributions: int = 0
    survivor_fsck_failures: int = 0
    resync_mismatches: int = 0
    post_resync_failures: int = 0


class MirrorKillCampaign(Campaign):
    """Sweep seeded mirror-member deaths and make the redundancy answer
    for every acknowledged byte."""

    name = "memberkill"

    def __init__(self, seeds: int = 10, seed: int = 0,
                 max_files: int = 24,
                 config: "SystemConfig | None" = None,
                 sanitize: "bool | None" = None):
        if seeds < 1:
            raise ValueError("seeds must be >= 1")
        super().__init__(MemberKillStats(), seed, config, sanitize,
                         layout="mirror:2", write_cache=True, checksums=True)
        if not self.config.layout.startswith("mirror"):
            raise ValueError("memberkill needs a mirror layout")
        self.seeds = seeds
        self.max_files = max_files

    # -- one seeded run ----------------------------------------------------
    def _run_one(self, seed: int) -> dict[str, Any]:
        rng = random.Random(seed)
        victim_idx = rng.randrange(2)
        die_at = 0.02 + rng.random() * 0.08
        plans = [None, None]
        plans[victim_idx] = FaultPlan(seed=seed, die_at=die_at)
        system = System.booted(self.config, fault_plan=plans)
        force_sanitizer(self.sanitize, system)
        proc = Proc(system, name=f"kill{seed}")
        volume = system.volume
        victim = volume.members[victim_idx]
        survivor = volume.members[1 - victim_idx]

        record: dict[str, Any] = {
            "seed": seed, "victim": victim_idx, "die_at": die_at,
        }
        acked: dict[str, bytes] = {}
        degraded_acked = 0

        def put(path: str, payload: bytes):
            fd = yield from proc.creat(path)
            yield from proc.write(fd, payload)
            yield from proc.fsync(fd)
            yield from proc.close(fd)

        # Write+fsync files until the victim dies (then a few more, to
        # exercise degraded writes), every one acknowledged.
        for i in range(self.max_files):
            size = rng.choice((8, 16, 24, 32)) * KB
            payload = bytes([(seed + i) & 0xFF]) * size
            path = f"/k{i}"
            before = victim.failed
            system.run(put(path, payload), name=f"put{i}")
            acked[path] = payload
            if before:
                degraded_acked += 1
            if victim.failed and degraded_acked >= 3:
                break
        self.stats.acked_files += len(acked)
        self.stats.acked_bytes += sum(len(v) for v in acked.values())
        self.stats.degraded_files += degraded_acked
        record["acked_files"] = len(acked)
        record["degraded_files"] = degraded_acked

        record["killed"] = victim.failed
        if not victim.failed:
            self.stats.inert_kills += 1
            return record
        self.stats.kills += 1

        # Blame: the victim's health took the failures, not the survivor's.
        if victim.health.failures == 0 or survivor.health.failures != 0:
            self.stats.health_misattributions += 1
            record["health"] = (victim.health.failures,
                                survivor.health.failures)

        # Degraded reads: every acknowledged byte through the live mirror.
        bad_reads = 0
        for path, payload in acked.items():
            back = system.run(_read_chunked(proc, path), name=f"get{path}")
            if back != payload:
                bad_reads += 1
        if bad_reads:
            self.stats.degraded_read_failures += bad_reads
            record["degraded_read_failures"] = bad_reads

        # Zero acknowledged loss: the survivor alone, remounted as a plain
        # single-disk machine, is a complete consistent image.
        system.sync()
        clone = survivor.store.clone()
        if not fsck(clone).clean:
            self.stats.survivor_fsck_failures += 1
            record["survivor_fsck"] = "dirty"
        solo = System.remounted(
            clone, self.config.with_(layout="single", write_cache=False))
        force_sanitizer(self.sanitize, solo)
        sproc = Proc(solo, name="survivor")
        lost = 0
        for path, payload in acked.items():
            if solo.run(_read_chunked(sproc, path), name="read") != payload:
                lost += 1
        if lost:
            self.stats.lost_acked_files += lost
            record["lost_acked_files"] = lost

        # Resync the dead member from the survivor: byte-identical end
        # state, verified against the integrity region.
        report = system.run(volume.resync(victim_idx), name="resync")
        record["resync"] = report
        self.stats.resync_sectors += report["sectors_copied"]
        if not report["identical"] or report["verify_failures"]:
            self.stats.resync_mismatches += 1

        # The repaired machine answers a deep sanitize and an fsck.
        post_ok = fsck(system.store).clean
        try:
            system.sanitizer.checkpoint("memberkill_post", idle=True,
                                        deep=True)
        except Exception:  # pragma: no cover - sanitizer violation
            post_ok = False
        if not post_ok:
            self.stats.post_resync_failures += 1
            record["post_resync"] = "dirty"
        return record

    # -- the sweep ---------------------------------------------------------
    def run(self) -> MemberKillStats:
        for seed in range(self.seed, self.seed + self.seeds):
            self.stats.runs += 1
            self.records.append(self._run_one(seed))
        return self.stats
