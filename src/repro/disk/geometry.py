"""Disk geometry: cylinders, heads, zones, skew, and the seek curve.

Sector addresses ("daddr" in kernel terms) are linear sector numbers; the
geometry maps them to (cylinder, head, sector-in-track) and knows the angular
position of every sector, including track and cylinder skew.  Variable
geometry (zoned) drives are supported because the paper uses them as an
argument against user-visible extents: "such a drive may have different
values for the optimal extent size at different locations".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.units import MS, SECTOR_SIZE


@dataclass(frozen=True)
class Zone:
    """A range of cylinders sharing a sectors-per-track count."""

    first_cyl: int
    last_cyl: int  # inclusive
    sectors_per_track: int

    def __post_init__(self) -> None:
        if self.first_cyl < 0 or self.last_cyl < self.first_cyl:
            raise ValueError(f"bad zone cylinder range [{self.first_cyl}, {self.last_cyl}]")
        if self.sectors_per_track <= 0:
            raise ValueError("sectors_per_track must be positive")

    @property
    def cylinders(self) -> int:
        return self.last_cyl - self.first_cyl + 1


@dataclass(frozen=True)
class DiskGeometry:
    """Physical layout and mechanical parameters of a rotational disk.

    The default seek curve is ``seek_min + seek_sqrt * sqrt(d) +
    seek_linear * d`` for a seek of ``d`` cylinders, the standard two-regime
    approximation (acceleration-limited short seeks, velocity-limited long
    ones).
    """

    heads: int
    zones: tuple[Zone, ...]
    rpm: float = 3600.0
    sector_size: int = SECTOR_SIZE
    #: Angular offset, in sectors, between vertically adjacent tracks —
    #: hides the head-switch time on sequential transfers.
    track_skew: int = 3
    #: Additional angular offset applied per cylinder — hides the
    #: track-to-track seek.
    cyl_skew: int = 12
    head_switch_time: float = 0.6 * MS
    seek_min: float = 2.5 * MS  # settle + shortest seek
    seek_sqrt: float = 0.5 * MS
    seek_linear: float = 0.002 * MS

    # Derived once (every disk request asks for them, and they never change).
    cylinders: int = field(init=False, repr=False, compare=False)
    #: Seconds per revolution.
    rotation_time: float = field(init=False, repr=False, compare=False)
    total_sectors: int = field(init=False, repr=False, compare=False)
    _zone_first_sector: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _zone_sectors: tuple[int, ...] = field(init=False, repr=False, compare=False)
    #: Sectors per track of every cylinder, by cylinder number.
    _spt_of_cyl: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.heads <= 0:
            raise ValueError("heads must be positive")
        if self.rpm <= 0:
            raise ValueError("rpm must be positive")
        if not self.zones:
            raise ValueError("at least one zone required")
        expected = 0
        firsts = []
        sizes = []
        spt_of_cyl: list[int] = []
        total = 0
        for zone in self.zones:
            if zone.first_cyl != expected:
                raise ValueError("zones must tile the cylinder range contiguously")
            firsts.append(total)
            sizes.append(zone.cylinders * self.heads * zone.sectors_per_track)
            spt_of_cyl += [zone.sectors_per_track] * zone.cylinders
            total += sizes[-1]
            expected = zone.last_cyl + 1
        derived = {
            "cylinders": expected, "rotation_time": 60.0 / self.rpm,
            "total_sectors": total, "_zone_first_sector": tuple(firsts),
            "_zone_sectors": tuple(sizes), "_spt_of_cyl": tuple(spt_of_cyl),
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    # -- construction helpers ---------------------------------------------
    @classmethod
    def uniform(cls, cylinders: int, heads: int, sectors_per_track: int,
                **kwargs: object) -> "DiskGeometry":
        """A single-zone (fixed geometry) drive."""
        zone = Zone(0, cylinders - 1, sectors_per_track)
        return cls(heads=heads, zones=(zone,), **kwargs)  # type: ignore[arg-type]

    @classmethod
    def ibm_400mb(cls) -> "DiskGeometry":
        """The calibrated stand-in for the paper's 400 MB IBM SCSI drive.

        56 sectors/track at 3600 RPM gives a 1.72 MB/s media rate; 16.7 ms
        rotation makes one 8 KB block pass in ~4.8 ms, matching the paper's
        "minimum rotdelay is one block time, 4 ms" arithmetic to first order.
        """
        return cls.uniform(cylinders=1600, heads=9, sectors_per_track=56)

    @classmethod
    def zoned_520mb(cls) -> "DiskGeometry":
        """A variable-geometry drive (more sectors on outer cylinders)."""
        zones = (
            Zone(0, 499, 72),
            Zone(500, 999, 60),
            Zone(1000, 1599, 48),
        )
        return cls(heads=9, zones=zones)

    # -- basic quantities --------------------------------------------------
    @property
    def capacity_bytes(self) -> int:
        return self.total_sectors * self.sector_size

    def sectors_per_track_at(self, cyl: int) -> int:
        if not 0 <= cyl < self.cylinders:
            raise ValueError(f"cylinder {cyl} out of range")
        return self._spt_of_cyl[cyl]

    def sector_time(self, cyl: int) -> float:
        """Seconds for one sector to pass under the head at ``cyl``."""
        return self.rotation_time / self.sectors_per_track_at(cyl)

    def media_rate(self, cyl: int) -> float:
        """Sustained media transfer rate (bytes/second) at ``cyl``."""
        return self.sectors_per_track_at(cyl) * self.sector_size / self.rotation_time

    # -- address translation ------------------------------------------------
    def to_chs(self, sector: int) -> tuple[int, int, int]:
        """Linear sector -> (cylinder, head, sector index within track)."""
        if not 0 <= sector < self.total_sectors:
            raise ValueError(f"sector {sector} out of range (0..{self.total_sectors - 1})")
        for zone, first, zone_sectors in zip(self.zones, self._zone_first_sector,
                                             self._zone_sectors):
            if sector < first + zone_sectors:
                rel = sector - first
                spt = zone.sectors_per_track
                cyl_size = self.heads * spt
                cyl = zone.first_cyl + rel // cyl_size
                head = (rel % cyl_size) // spt
                idx = rel % spt
                return cyl, head, idx
        raise AssertionError("unreachable")

    # -- angular position ----------------------------------------------------
    def skew_sectors(self, cyl: int, head: int) -> int:
        """Angular offset (in sectors) of sector 0 of the given track.

        Skew is cumulative along the linear track order: each head switch
        within a cylinder adds ``track_skew``; each cylinder crossing adds
        ``cyl_skew``.  This keeps *every* sequential track transition cheap,
        which is what drive manufacturers format skew for.
        """
        spt = self.sectors_per_track_at(cyl)
        per_cyl = (self.heads - 1) * self.track_skew + self.cyl_skew
        return (cyl * per_cyl + head * self.track_skew) % spt

    def sector_angle(self, cyl: int, head: int, idx: int) -> float:
        """Angular position (fraction of a revolution) where ``idx`` starts."""
        spt = self.sectors_per_track_at(cyl)
        return ((idx + self.skew_sectors(cyl, head)) % spt) / spt

    def angle_at(self, t: float) -> float:
        """Spindle angle (fraction of a revolution) at time ``t``."""
        return (t / self.rotation_time) % 1.0

    def rotational_wait(self, t: float, cyl: int, head: int, idx: int) -> float:
        """Seconds until sector ``idx`` of the given track arrives under the head."""
        target = self.sector_angle(cyl, head, idx)
        current = self.angle_at(t)
        frac = (target - current) % 1.0
        return frac * self.rotation_time

    # -- seeking ---------------------------------------------------------------
    def seek_time(self, from_cyl: int, to_cyl: int) -> float:
        """Seconds to move the heads between cylinders (0 if same)."""
        distance = abs(to_cyl - from_cyl)
        if distance == 0:
            return 0.0
        return self.seek_min + self.seek_sqrt * math.sqrt(distance) + self.seek_linear * distance
