"""The campaign shell: what the three sweeps share, written once.

``netcampaign``, ``crashpoints`` and ``scrubcampaign`` have different
bodies — a replay leg and a soft-mount probe, an enumeration over one
recording, a single six-phase run — so there is no phase protocol here
for them to be bent into.  They share a shell: a small-disk machine, a
dataclass of counters, per-record outcomes and a seed-stable digest.
The caller's :func:`~repro.sim.invariants.sanitizing` scope around
:meth:`run` sanitizes their machines.  Their verdicts are rows of the
experiment table (:func:`repro.bench.experiments.sweep_cells`).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from repro.disk.geometry import DiskGeometry
from repro.kernel.config import SystemConfig


def small_config(**overrides: object) -> SystemConfig:
    """A small-disk machine, so dozens of boot/crash cycles stay fast."""
    return SystemConfig.config_a().with_(
        geometry=DiskGeometry.uniform(cylinders=120, heads=2,
                                      sectors_per_track=32),
        **overrides)


class Campaign:
    """The shell of a sweep: seed, machine, stats, records, digest."""

    #: The ``python -m repro`` subcommand.
    name = ""

    def __init__(self, stats: Any, seed: int, **small: object):
        self.stats = stats
        self.seed = seed
        self.config = small_config(**small)
        #: One JSON-ready dict per cut / seed / injection / violation.
        self.records: "list[dict]" = []

    def digest_lines(self) -> "list[str]":
        """The lines :attr:`digest` hashes: one canonical-JSON record each."""
        return [json.dumps(r, sort_keys=True, default=str)
                for r in self.records]

    @property
    def digest(self) -> str:
        """Seed-stable fingerprint of the sweep's per-record outcomes."""
        return hashlib.sha256(
            "\n".join(sorted(self.digest_lines())).encode()).hexdigest()
