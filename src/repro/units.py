"""Unit helpers.

All simulated time is in seconds, all sizes in bytes.  These helpers keep the
calibration tables readable (``56 * KB``, ``4 * MS``) without inventing a
quantity type system.
"""

from __future__ import annotations

KB = 1024
MB = 1024 * KB
GB = 1024 * MB

US = 1e-6  #: one microsecond, in seconds
MS = 1e-3  #: one millisecond, in seconds

SECTOR_SIZE = 512  #: disk sector size in bytes (fixed, as on the paper's SCSI drive)


def kb_per_sec(nbytes: float, seconds: float) -> float:
    """Throughput in KB/second, the unit of the paper's figure 10."""
    if seconds <= 0:
        raise ValueError("elapsed time must be positive")
    return nbytes / KB / seconds
