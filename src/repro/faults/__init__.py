"""Fault injection: deterministic disk and network fault plans and campaigns.

The fault model lives in two layers per medium:

* :class:`FaultPlan` — a seeded schedule of disk faults (latent bad
  sectors, transient failures, controller timeouts, device death, silent
  write faults) injected into :class:`repro.disk.disk.RotationalDisk`;
  the driver's recovery machinery (retries, backoff, bad-block remapping,
  split-retry of coalesced clusters) is exercised against it.
* :class:`CrashpointExplorer` — records a workload on the disk's journal
  (the paper's write-through drive, or a volatile write cache), then
  enumerates every bounded-legal crash state (cache subsets × torn
  writes) and verifies the durability contract on each distinct image.
* :class:`MirrorKillCampaign` — a seeded sweep of mirror-member deaths
  over a ``mirror:2`` volume, asserting degraded service, zero
  acknowledged loss from the survivor alone, and byte-identical members
  after resync.
* :class:`NetFaultPlan` — the network twin: a seeded schedule of datagram
  drops, duplicates, corruption, reordering, latency spikes, link
  partitions, and server crash/reboot windows injected into
  :class:`repro.nfs.net.Network`; the NFS client's retransmission and the
  server's duplicate-request cache are exercised against it.
* :class:`NetCampaign` — a seeded sweep of network-fault schedules over an
  NFS create/write/fsync/remove workload, asserting no acknowledged write
  is ever lost, mutations stay exactly-once, and corrupt bytes never reach
  the client's page cache.

The four sweeps (the three above and :mod:`repro.integrity.campaign`'s
scrub campaign) share one shell, :mod:`repro.faults.harness`.
"""

from repro.faults.crashpoints import (
    CrashpointExplorer, CrashpointReport, PRESETS,
)
from repro.faults.harness import Campaign, SweepStats, small_config
from repro.faults.memberkill import MemberKillStats, MirrorKillCampaign
from repro.faults.netcampaign import NetCampaign, NetCampaignStats
from repro.faults.netplan import NetDecision, NetFaultPlan
from repro.faults.plan import (
    CORRUPT_KINDS, SILENT_KINDS, FaultDecision, FaultKind, FaultPlan,
    corrupt_frag,
)

__all__ = [
    "CORRUPT_KINDS",
    "SILENT_KINDS",
    "corrupt_frag",
    "Campaign",
    "CrashpointExplorer",
    "CrashpointReport",
    "PRESETS",
    "FaultDecision",
    "FaultKind",
    "FaultPlan",
    "MemberKillStats",
    "MirrorKillCampaign",
    "NetCampaign",
    "NetCampaignStats",
    "NetDecision",
    "NetFaultPlan",
    "SweepStats",
    "small_config",
]
