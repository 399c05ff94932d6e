"""Rotational disk model.

Models the paper's testbed drive — a 400 MB 3.5" IBM SCSI disk with an
on-board controller and a track (look-ahead) buffer — at the level of detail
the paper's arguments require:

* real rotational position as a function of simulated time, so the cost of
  "the disk would have to wait almost a full rotation" emerges naturally;
* track and cylinder skew, so multi-track transfers stream;
* a read-only, write-through track buffer that fills from the first sector of
  a media read to the end of the track (the mechanism behind "the track
  buffer helps only reads");
* a driver with a ``disksort`` elevator queue, optional request coalescing
  (the rejected *driver clustering* alternative), and the future-work
  ``B_ORDER`` barrier flag.

The disk stores real bytes: the data read back is the data written, which
lets integrity tests run against the same stack the benchmarks use.

Above the single disk sits the volume layer (:mod:`repro.disk.volume`):
a pluggable block-device stack offering concat, stripe (RAID-0), and
mirror (RAID-1) volumes whose members are full disk models — each with
its own queue, scheduler, write cache, and fault plan — so member I/Os
genuinely overlap in simulated time.
"""

from repro.disk.buf import Buf, BufOp
from repro.disk.disk import RotationalDisk, TrackBuffer
from repro.disk.driver import DiskDriver, DiskQueue
from repro.disk.geometry import DiskGeometry, Zone
from repro.disk.sched import (
    DeadlineScheduler, ElevatorScheduler, FifoScheduler, Scheduler,
    make_scheduler,
)
from repro.disk.store import DiskStore
from repro.disk.volume import (
    MirrorVolume, MultiVolume, SingleVolume, StripeVolume,
    VolumeMember, VolumeSpec, build_volume,
)

__all__ = [
    "Buf",
    "BufOp",
    "DeadlineScheduler",
    "DiskDriver",
    "DiskQueue",
    "DiskGeometry",
    "DiskStore",
    "ElevatorScheduler",
    "FifoScheduler",
    "MirrorVolume",
    "MultiVolume",
    "RotationalDisk",
    "Scheduler",
    "SingleVolume",
    "StripeVolume",
    "TrackBuffer",
    "VolumeMember",
    "VolumeSpec",
    "Zone",
    "build_volume",
    "make_scheduler",
]
