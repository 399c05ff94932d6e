"""End-to-end data integrity: per-fragment checksums, scrubbing, repair.

* :mod:`repro.integrity.checksum` — the on-disk integrity region: a table
  of self-describing per-fragment records (CRC, fragment address,
  generation, owner) plus replicas of the superblock and cylinder-group
  headers, stamped on every write and verified on every read.
* :mod:`repro.integrity.scrub` — the background scrubber and its paced
  daemon: walk the stamped fragments, detect latent corruption, repair
  via the replica/page-cache ladder, mark the rest bad.
* :mod:`repro.integrity.campaign` — ``python -m repro scrubcampaign``:
  seeded silent-corruption injection with deterministic
  detect/repair/unrepairable accounting.
"""

from repro.integrity.checksum import (
    INTEGRITY_MAGIC,
    RECORD_SIZE,
    IntegrityRegion,
    Record,
)
from repro.integrity.scrub import ScrubDaemon, Scrubber, ScrubReport
from repro.integrity.campaign import ScrubCampaign

__all__ = [
    "INTEGRITY_MAGIC",
    "RECORD_SIZE",
    "IntegrityRegion",
    "Record",
    "Scrubber",
    "ScrubDaemon",
    "ScrubReport",
    "ScrubCampaign",
]
