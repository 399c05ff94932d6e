"""Lost-write campaigns: seeded sweeps of network faults over NFS.

The disk-side :class:`~repro.faults.crashpoints.CrashpointExplorer` makes
fsck answer for torn writes; the network campaign makes the hardened RPC layer
answer for a lossy wire.  Each seeded run builds a client/server world
whose network drops, duplicates, corrupts, reorders, and delays messages
(and may partition the link), drives a create/write/fsync/remove workload
from the client, then stops the faults and verifies the invariants that
make NFS serving trustworthy — each an ``exact(0)`` cell of the
``netcampaign`` experiment row: no lost acknowledged write (COMMIT is the
barrier: a hard mount may retry long but may not lie), exactly-once
mutations behind the duplicate-request cache on every seed, no corrupted
byte in the client's page cache, removed means ENOENT, a soft mount fails
fast with ETIMEDOUT under a full partition, and the base seed replays to
an identical fingerprint, fault schedule included.  The server's power
cuts are the ``crashpoints`` preset ``nfs``.

Determinism: each run's fault intensities and windows derive from
``random.Random(seed)``, the plan's per-message draws are consumed in send
order, and the engine is deterministic — so the same seed produces the
same fault history and the same verdict, every time.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Any, Generator

from repro.errors import RpcTimeoutError
from repro.faults.harness import Campaign, force_sanitizer
from repro.faults.ledger import Ledger, check
from repro.faults.netplan import NetFaultPlan
from repro.kernel.syscalls import Proc
from repro.nfs.world import build_world
from repro.units import KB


@dataclass
class NetCampaignStats:
    """Aggregated results of one sweep; byte-identical for a given seed."""

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
    drc_hits: int = 0
    corrupt_replies_dropped: int = 0
    corrupt_requests_rejected: int = 0
    acked_files: int = 0
    acked_bytes: int = 0
    removes: int = 0
    # -- invariants: the netcampaign row's exact(0) cells ------------------
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

    #: Files the workload creates, and the size of each.
    NFILES = 5
    FILE_BYTES = 16 * KB

    def __init__(self, seeds: int = 20, seed: int = 0,
                 sanitize: "bool | None" = None):
        if seeds < 1:
            raise ValueError("seeds must be >= 1")
        super().__init__(NetCampaignStats(), seed, sanitize)
        self.seeds = seeds
        self._window: "tuple[float, float] | None" = None

    # -- the workload --------------------------------------------------------
    def _payload(self, i: int) -> bytes:
        return bytes((i * 41 + j * 13) % 251 for j in range(self.FILE_BYTES))

    def _workload(self, proc: Proc) -> Generator[Any, Any, None]:
        """Create/write/fsync/remove churn over the wire.  Every fsync that
        *returned* is a promise in ``proc``'s ledger: the COMMIT barrier
        means those bytes are on the server's disk whatever the wire does
        next."""
        for i in range(self.NFILES):
            fd = yield from proc.creat(f"/r{i}")
            yield from proc.write(fd, self._payload(i))
            yield from proc.fsync(fd)
            yield from proc.close(fd)
            if i % 3 == 2:
                # Remove an earlier (already durable) file: REMOVE is the
                # non-idempotent op the duplicate-request cache exists for.
                yield from proc.unlink(f"/r{i - 1}")

    # -- one seeded run ------------------------------------------------------
    def _plan_for(self, seed: int) -> NetFaultPlan:
        """Derive one seed's fault schedule (intensities and windows)."""
        rng = random.Random(seed)
        t0, t1 = self._window if self._window is not None else (0.01, 0.5)
        partitions = []
        if rng.random() < 0.5:
            start = rng.uniform(t0, t1)
            partitions.append((start, start + rng.uniform(0.05, 0.3)))
        return NetFaultPlan(
            seed=seed,
            drop_p=rng.uniform(0.02, 0.15),
            duplicate_p=rng.uniform(0.0, 0.08),
            corrupt_p=rng.uniform(0.0, 0.08),
            reorder_p=rng.uniform(0.0, 0.10),
            spike_p=rng.uniform(0.0, 0.03),
            partitions=partitions,
        )

    def _one_run(self, plan: "NetFaultPlan | None") -> dict:
        """Build a world, run the doomed workload, verify, fingerprint."""
        client, server_sys, mount = build_world(
            server_config=self.config, fault_plan=plan, timeo=0.3)
        force_sanitizer(self.sanitize, client, server_sys)
        ledger = Ledger()
        proc = Proc(client, ledger=ledger)
        start = client.now
        client.run(self._workload(proc), name="netcampaign-workload")
        slots = ledger.slots().values()
        result = {
            "mount": mount, "server": mount.server,
            "plan": plan, "window": (start, client.now),
            "acked": [s.promised for s in slots if s.promised is not None],
            "removes": sum(s.promised is None for s in slots),
            "lost": 0, "corrupt_serves": 0, "remove_violations": 0,
        }
        if plan is not None:
            plan.disabled = True  # faults clear; now the promises come due
            # Purge the client cache so every read really crosses the wire
            # (and would expose any corrupt bytes that snuck into it).
            for vn in mount.vnodes():
                client.pagecache.vnode_invalidate(vn)
            kinds = Counter(kind for kind, _ in check(proc, ledger))
            result["lost"] = kinds["missing"] + kinds["short"]
            result["corrupt_serves"] = kinds["wrong_bytes"]
            result["remove_violations"] = kinds["not_removed"]
        result["fingerprint"] = self._fingerprint(result)
        # End-of-run quiesce: both machines idle, the wire clean.  The
        # server syncs first so the deep pass can hold fsck to its word.
        server_sys.sync()
        client.sanitizer.checkpoint("netcampaign_run", idle=True)
        server_sys.sanitizer.checkpoint("netcampaign_run", idle=True,
                                        deep=True)
        return result

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
        proc = Proc(client)

        def attempt():
            yield from proc.creat("/doomed")

        try:
            client.run(attempt(), name="netcampaign-soft")
        except RpcTimeoutError:
            return proc.errno == "ETIMEDOUT"
        return False

    # -- the sweep ---------------------------------------------------------
    def run(self) -> NetCampaignStats:
        # Rehearsal: learn the workload's fault-free span so partitions
        # land inside the interesting region.
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
            s.drc_hits += int(srv["drc_hits"])
            s.corrupt_requests_rejected += int(srv["corrupt_requests_rejected"])
            s.acked_files += len(result["acked"])
            s.acked_bytes += sum(map(len, result["acked"]))
            s.removes += result["removes"]
            s.lost_acked_writes += result["lost"]
            s.corrupt_cache_serves += result["corrupt_serves"]
            s.remove_violations += result["remove_violations"]
            s.duplicate_side_effects += int(srv["duplicate_executions"])
            self.records.append({
                "seed": seed,
                "drops": int(plan.stats["drops"]),
                "duplicates": int(plan.stats["duplicates"]),
                "corruptions": int(plan.stats["corrupts"]),
                "reorders": int(plan.stats["reorders"]),
                "partition_drops": int(plan.stats["partition_drops"]),
                "retransmits": int(mstats["retransmits"]),
                "rpc_timeouts": int(mstats["rpc_timeouts"]),
                "drc_hits": int(srv["drc_hits"]),
                "acked_files": len(result["acked"]),
                "removes": result["removes"],
                "lost_acked_writes": result["lost"],
                "corrupt_cache_serves": result["corrupt_serves"],
                "remove_violations": result["remove_violations"],
            })
        if not self._soft_probe():
            s.soft_timeout_failures += 1
        return s
