"""Lost-write campaigns: seeded sweeps of network faults over NFS.

The disk-side :class:`~repro.faults.campaign.CrashCampaign` makes fsck
answer for torn writes; the network campaign makes the hardened RPC layer
answer for a lossy wire.  Each seeded run builds a client/server world
whose network drops, duplicates, corrupts, reorders, and delays messages
(and may partition the link or crash/reboot the server), drives a
create/write/fsync/remove workload from the client, then stops the faults
and verifies the invariants that make NFS serving trustworthy:

* **no lost acknowledged writes** — every byte a returned fsync covered
  reads back intact after the faults clear (WRITE is v2-stable, COMMIT is
  the barrier; a hard mount may retry for a long time but may not lie);
* **exactly-once mutations** — retransmitted CREATE/WRITE/REMOVE must be
  answered from the server's duplicate-request cache, never re-executed
  (checked against the server's execution accounting; runs whose plan
  crashes the server are exempt, since a cold DRC is exactly the exposure
  the REMOVE heuristic exists for);
* **no corrupted bytes served** — a damaged READ reply must die at the
  checksum, never in the client's page cache (checked by content);
* **removed means removed** — every REMOVEd path is ENOENT afterwards;
* **soft mounts fail fast** — under a full partition a soft mount raises
  ETIMEDOUT (mirrored in ``proc.errno``) instead of hanging;
* **determinism** — the base seed is run twice and must produce an
  identical stats fingerprint, fault schedule included.

Determinism: each run's fault intensities and windows derive from
``random.Random(seed)``, the plan's per-message draws are consumed in send
order, and the engine is deterministic — so the same seed produces the
same fault history and the same verdict, every time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Generator

from repro.errors import FileNotFoundError_, ReproError, RpcTimeoutError
from repro.faults.harness import Campaign, SweepStats, force_sanitizer
from repro.faults.netplan import NetFaultPlan
from repro.kernel.config import SystemConfig
from repro.kernel.syscalls import Proc
from repro.nfs.world import build_world
from repro.units import KB
from repro.vfs.vnode import RW


@dataclass
class NetCampaignStats(SweepStats):
    """Aggregated results of one sweep; byte-identical for a given seed."""

    MUST_BE_ZERO = ("lost_acked_writes", "corrupt_cache_serves",
                    "duplicate_side_effects", "remove_violations",
                    "soft_timeout_failures", "determinism_failures")

    runs: int = 0
    rpcs: int = 0
    retransmits: int = 0
    rpc_timeouts: int = 0
    rtt_samples: int = 0
    drops_injected: int = 0
    duplicates_injected: int = 0
    corruptions_injected: int = 0
    reorders_injected: int = 0
    partition_drops: int = 0
    server_reboots: int = 0
    drc_hits: int = 0
    corrupt_replies_dropped: int = 0
    corrupt_requests_rejected: int = 0
    acked_files: int = 0
    acked_bytes: int = 0
    removes: int = 0
    # -- invariant violations (all must stay zero) -------------------------
    lost_acked_writes: int = 0
    corrupt_cache_serves: int = 0
    duplicate_side_effects: int = 0
    remove_violations: int = 0
    soft_timeout_failures: int = 0
    determinism_failures: int = 0


class NetCampaign(Campaign):
    """Sweep seeded network-fault schedules over an NFS workload and make
    the RPC hardening answer for every acknowledged byte."""

    name = "netcampaign"

    def __init__(self, seeds: int = 20, base_seed: int = 0, nfiles: int = 5,
                 file_bytes: int = 16 * KB,
                 config: "SystemConfig | None" = None,
                 sanitize: "bool | None" = None):
        if seeds < 1:
            raise ValueError("seeds must be >= 1")
        if nfiles < 2:
            raise ValueError("nfiles must be >= 2")
        super().__init__(NetCampaignStats(), base_seed, config, sanitize)
        self.seeds = seeds
        self.nfiles = nfiles
        self.file_bytes = file_bytes
        self._window: "tuple[float, float] | None" = None

    # -- the workload --------------------------------------------------------
    def _payload(self, i: int) -> bytes:
        return bytes((i * 41 + j * 13) % 251 for j in range(self.file_bytes))

    def _workload(self, proc: Proc, state: dict) -> Generator[Any, Any, None]:
        """Create/write/fsync/remove churn over the wire.

        ``state['durable']`` holds path -> content for every file whose
        fsync *returned*: v2-stable WRITEs plus a COMMIT barrier mean those
        bytes are on the server's disk whatever the wire does next.
        """
        for i in range(self.nfiles):
            path = f"/r{i}"
            payload = self._payload(i)
            fd = yield from proc.creat(path)
            yield from proc.write(fd, payload)
            yield from proc.fsync(fd)
            state["durable"][path] = payload
            yield from proc.close(fd)
            if i % 3 == 2:
                # Remove an earlier (already durable) file: REMOVE is the
                # non-idempotent op the duplicate-request cache exists for.
                victim = f"/r{i - 1}"
                yield from proc.unlink(victim)
                state["durable"].pop(victim, None)
                state["removed"].append(victim)

    # -- one seeded run ------------------------------------------------------
    def _plan_for(self, seed: int) -> NetFaultPlan:
        """Derive one seed's fault schedule (intensities and windows)."""
        rng = random.Random(seed)
        t0, t1 = self._window if self._window is not None else (0.01, 0.5)
        partitions = []
        if rng.random() < 0.5:
            start = rng.uniform(t0, t1)
            partitions.append((start, start + rng.uniform(0.05, 0.3)))
        crashes = []
        if rng.random() < 0.3:
            crashes.append(rng.uniform(t0, t1))
        return NetFaultPlan(
            seed=seed,
            drop_p=rng.uniform(0.02, 0.15),
            duplicate_p=rng.uniform(0.0, 0.08),
            corrupt_p=rng.uniform(0.0, 0.08),
            reorder_p=rng.uniform(0.0, 0.10),
            spike_p=rng.uniform(0.0, 0.03),
            partitions=partitions,
            server_crash_at=crashes,
            server_reboot_delay=rng.uniform(0.1, 0.3),
        )

    def _one_run(self, plan: "NetFaultPlan | None") -> dict:
        """Build a world, run the doomed workload, verify, fingerprint."""
        client, server_sys, mount = build_world(
            server_config=self.config, fault_plan=plan, timeo=0.3)
        force_sanitizer(self.sanitize, client, server_sys)
        # The client machine has no UFS mount; its write throttles live on
        # the NFS vnodes.  Teach its sanitizer where to find them.
        client.sanitizer.throttle_sources.append(
            lambda: ((f"nfs handle {h}", vn.throttle)
                     for h, vn in mount._vnodes.items()))
        state: dict = {"durable": {}, "removed": []}
        proc = Proc(client, mount=mount)
        start = client.now
        client.run(self._workload(proc, state), name="netcampaign-workload")
        result = {
            "state": state, "mount": mount, "server": mount.server,
            "plan": plan, "window": (start, client.now),
            "lost": 0, "corrupt_serves": 0, "remove_violations": 0,
        }
        if plan is not None:
            plan.disabled = True  # faults clear; now the promises come due
            self._verify(client, mount, state, result)
        result["fingerprint"] = self._fingerprint(result)
        # End-of-run quiesce: both machines idle, the wire clean.  The
        # server syncs first so the deep pass can hold fsck to its word.
        server_sys.sync()
        client.sanitizer.checkpoint("netcampaign_run", idle=True)
        server_sys.sanitizer.checkpoint("netcampaign_run", idle=True,
                                        deep=True)
        return result

    def _verify(self, client, mount, state: dict, result: dict) -> None:
        """Read every acknowledged byte back over the (now clean) wire."""
        for path in sorted(state["durable"]):
            expect = state["durable"][path]
            try:
                vn = client.run(mount.namei(path), name="netcampaign-verify")
                # Purge the client cache so the read really crosses the wire
                # (and would expose any corrupt bytes that snuck into it).
                client.pagecache.vnode_invalidate(vn)
                got = client.run(vn.rdwr(RW.READ, 0, len(expect)),
                                 name="netcampaign-verify")
            except ReproError:
                got = None
            if got is None or len(got) != len(expect):
                result["lost"] += 1
            elif got != expect:
                result["corrupt_serves"] += 1
        for path in state["removed"]:
            try:
                client.run(mount.namei(path), name="netcampaign-verify")
                result["remove_violations"] += 1  # should have been ENOENT
            except FileNotFoundError_:
                pass

    @staticmethod
    def _fingerprint(result: dict) -> "tuple[Any, ...]":
        """Everything a replay of the same seed must reproduce exactly."""
        plan = result["plan"]
        return (
            tuple(sorted(result["mount"].stats.as_dict().items())),
            tuple(sorted(result["server"].stats.as_dict().items())),
            tuple(sorted(plan.stats.as_dict().items())) if plan else (),
            result["lost"], result["corrupt_serves"],
            result["remove_violations"], result["window"],
        )

    # -- the soft-mount probe --------------------------------------------------
    def _soft_probe(self) -> bool:
        """A soft mount under a full partition must fail fast with
        ETIMEDOUT in ``proc.errno`` — never hang."""
        plan = NetFaultPlan()
        client, _server, mount = build_world(
            server_config=self.config, fault_plan=plan,
            soft=True, timeo=0.2, retrans=3)
        # The partition starts only after boot + mount activation (which
        # share the engine clock), so the mount itself comes up clean.
        plan.partitions = [(client.now + 0.01, 1e9)]
        proc = Proc(client, mount=mount)

        def attempt():
            yield from proc.creat("/doomed")

        try:
            client.run(attempt(), name="netcampaign-soft")
        except RpcTimeoutError:
            return proc.errno == "ETIMEDOUT"
        return False

    # -- the sweep ---------------------------------------------------------
    def run(self) -> NetCampaignStats:
        # Rehearsal: learn the workload's fault-free span so partitions and
        # crash windows land inside the interesting region.
        rehearsal = self._one_run(None)
        self._window = rehearsal["window"]

        s = self.stats
        seeds = [self.seed + i for i in range(self.seeds)]
        for i, seed in enumerate(seeds):
            result = self._one_run(self._plan_for(seed))
            if i == 0:
                # Replay the first seed: same seed, same verdict, byte for
                # byte — otherwise no campaign finding is diagnosable.
                replay = self._one_run(self._plan_for(seed))
                if replay["fingerprint"] != result["fingerprint"]:
                    s.determinism_failures += 1
            s.runs += 1
            mstats, srv = result["mount"].stats, result["server"].stats
            plan = result["plan"]
            s.rpcs += int(mstats["rpcs"])
            s.retransmits += int(mstats["retransmits"])
            s.rpc_timeouts += int(mstats["rpc_timeouts"])
            s.rtt_samples += int(mstats["rtt_samples"])
            s.corrupt_replies_dropped += int(mstats["corrupt_replies_dropped"])
            s.drops_injected += int(plan.stats["drops"])
            s.duplicates_injected += int(plan.stats["duplicates"])
            s.corruptions_injected += int(plan.stats["corrupts"])
            s.reorders_injected += int(plan.stats["reorders"])
            s.partition_drops += int(plan.stats["partition_drops"])
            s.server_reboots += int(srv["reboots"])
            s.drc_hits += int(srv["drc_hits"])
            s.corrupt_requests_rejected += int(srv["corrupt_requests_rejected"])
            state = result["state"]
            s.acked_files += len(state["durable"])
            s.acked_bytes += sum(len(v) for v in state["durable"].values())
            s.removes += len(state["removed"])
            s.lost_acked_writes += result["lost"]
            s.corrupt_cache_serves += result["corrupt_serves"]
            s.remove_violations += result["remove_violations"]
            if not plan.server_crash_at:
                # With no reboot the DRC must make every retransmitted
                # mutation exactly-once; after a cold start re-execution is
                # possible by design (content checks above still apply).
                s.duplicate_side_effects += int(srv["duplicate_executions"])
            self.records.append({
                "seed": seed,
                "drops": int(plan.stats["drops"]),
                "duplicates": int(plan.stats["duplicates"]),
                "corruptions": int(plan.stats["corrupts"]),
                "reorders": int(plan.stats["reorders"]),
                "partition_drops": int(plan.stats["partition_drops"]),
                "server_reboots": int(srv["reboots"]),
                "retransmits": int(mstats["retransmits"]),
                "rpc_timeouts": int(mstats["rpc_timeouts"]),
                "drc_hits": int(srv["drc_hits"]),
                "acked_files": len(state["durable"]),
                "removes": len(state["removed"]),
                "lost_acked_writes": result["lost"],
                "corrupt_cache_serves": result["corrupt_serves"],
                "remove_violations": result["remove_violations"],
            })
        if not self._soft_probe():
            s.soft_timeout_failures += 1
        return s
