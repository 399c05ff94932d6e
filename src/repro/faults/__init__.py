"""Fault injection: deterministic disk and network fault plans and campaigns.

The fault model lives in two layers per medium:

* :class:`FaultPlan` — a seeded schedule of disk faults (latent bad
  sectors, transient failures, controller timeouts, device death, silent
  write faults) injected into :class:`repro.disk.disk.RotationalDisk`;
  the driver's recovery machinery (retries, backoff, bad-block remapping,
  split-retry of coalesced clusters) is exercised against it.
* :class:`NetFaultPlan` — the network twin: a seeded schedule of datagram
  drops, duplicates, corruption, reordering, latency spikes and link
  partitions injected into :class:`repro.nfs.net.Network`; the NFS
  client's retransmission and the server's duplicate-request cache are
  exercised against it.

Two sweeps hold the stack to its promises: :class:`CrashpointExplorer`
(every bounded-legal crash state of a workload recorded on the journal its
drives share — one local disk, the members of a stripe or mirror, or an
NFS server's disk; on a mirror, every leg's death too) and
:class:`NetCampaign` (seeded network faults over NFS).  With the scrub
campaign (:mod:`repro.integrity.campaign`) they share one shell,
:mod:`repro.faults.harness`; their runs are rows of the experiment table.
"""

from repro.faults.crashpoints import (
    CrashpointExplorer, CrashpointReport, PRESETS,
)
from repro.faults.harness import Campaign, small_config
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
    "NetCampaign",
    "NetCampaignStats",
    "NetDecision",
    "NetFaultPlan",
    "small_config",
]
