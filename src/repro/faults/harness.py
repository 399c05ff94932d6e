"""The campaign shell: what the five sweeps share, written once.

``faultcampaign``, ``netcampaign``, ``memberkill``, ``crashpoints`` and
``scrubcampaign`` have different bodies — one seed and many cuts after a
rehearsal, a replay leg and a soft-mount probe, an enumeration over one
recording, a single six-phase run — so there is no phase protocol here
for them to be bent into.  What they do share is a shell: a small-disk
default machine, the "``None`` leaves the environment default" sanitizer
rule, counters with a pass/fail verdict, and a JSON envelope with a
seed-stable digest (written, like every document, by
:func:`repro.obs.bench.write_json`).  A sweep subclasses
:class:`Campaign`, declares a :class:`SweepStats`, and owns its ``run``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Any, ClassVar, Generator

from repro.disk.geometry import DiskGeometry
from repro.kernel.config import SystemConfig
from repro.kernel.syscalls import Proc

SCHEMA = "repro-campaign/v1"


def small_config(**overrides: object) -> SystemConfig:
    """A small-disk machine, so dozens of boot/crash cycles stay fast."""
    return SystemConfig.config_a().with_(
        geometry=DiskGeometry.uniform(cylinders=120, heads=2,
                                      sectors_per_track=32),
        **overrides)


def force_sanitizer(sanitize: "bool | None", *systems: Any) -> None:
    """Force the invariant sanitizer on/off on ``systems``; ``None`` keeps
    the ``REPRO_SANITIZE`` environment default each was built with."""
    if sanitize is not None:
        for system in systems:
            system.sanitizer.enabled = sanitize


def read_file(proc: Proc, path: str, length: int
              ) -> Generator[Any, Any, bytes]:
    """Open, read ``length`` bytes in one call (none when empty), close."""
    fd = yield from proc.open(path)
    data = b""
    if length:
        data = yield from proc.read(fd, length)
    yield from proc.close(fd)
    return data


@dataclass
class SweepStats:
    """Counters of one sweep; byte-identical for a given seed."""

    #: Fields (or attributes) that must be zero/empty for the sweep to pass.
    MUST_BE_ZERO: ClassVar["tuple[str, ...]"] = ()

    def as_dict(self) -> "dict[str, Any]":
        return asdict(self)

    def holds(self) -> bool:
        """What the verdict needs beyond :attr:`MUST_BE_ZERO`."""
        return True

    @property
    def ok(self) -> bool:
        """True when every invariant held across the sweep."""
        return (not any(getattr(self, name) for name in self.MUST_BE_ZERO)
                and self.holds())

    def __str__(self) -> str:
        return "\n".join(f"{k:26} {v}" for k, v in self.as_dict().items())


class Campaign:
    """The shell of a sweep: seed, machine, stats, records, report."""

    #: The ``python -m repro`` subcommand, and the envelope's ``campaign``.
    name = ""

    def __init__(self, stats: SweepStats, seed: int,
                 config: "SystemConfig | None", sanitize: "bool | None",
                 **small: object):
        self.stats = stats
        self.seed = seed
        self.config = config if config is not None else small_config(**small)
        #: Force the invariant sanitizer on/off on every machine of the
        #: sweep; None keeps the REPRO_SANITIZE environment default.
        self.sanitize = sanitize
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

    def to_json(self) -> dict:
        """The sweep as one JSON-ready document."""
        return {
            "schema": SCHEMA,
            "campaign": self.name,
            "seed": self.seed,
            "stats": self.stats.as_dict(),
            "records": self.records,
            "digest": self.digest,
            "ok": self.stats.ok,
        }
