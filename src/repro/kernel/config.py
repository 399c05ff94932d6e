"""Machine + tuning configurations, including the paper's figure 9 rows.

The benchmarked hardware is "an 8MB, 20MHz Sparcstation 1, with one 400MB
3.5" IBM SCSI drive"; the four configurations differ only in file system
tuning and which parts of the new code are enabled:

====  ============  ========  ===========  ===========  ===========
run   cluster size  rotdelay  UFS version  free behind  write limit
====  ============  ========  ===========  ===========  ===========
A     120KB         0         SunOS 4.1.1  Yes          Yes
B     8KB           4ms       SunOS 4.1    Yes          Yes
C     8KB           4ms       SunOS 4.1    No           Yes
D     8KB           4ms       SunOS 4.1    No           No
====  ============  ========  ===========  ===========  ===========
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core import ClusterTuning
from repro.cpu import CostTable
from repro.disk.geometry import DiskGeometry
from repro.ufs.params import FsParams
from repro.units import KB, MB


@dataclass(frozen=True)
class SystemConfig:
    """Everything needed to build a simulated machine and file system."""

    name: str = "custom"
    memory_bytes: int = 8 * MB
    #: Pages held by the kernel and process working sets, unavailable to
    #: the page cache (text, kernel data, u-areas on the 8 MB SS1).
    reserved_memory_bytes: int = 2 * MB
    page_size: int = 8 * KB
    geometry: DiskGeometry = field(default_factory=DiskGeometry.ibm_400mb)
    track_buffer: bool = True
    driver_coalesce: bool = False  # the rejected driver-clustering approach
    #: Disk queue policy: "elevator" (disksort), "fifo", or "deadline".
    scheduler: str = "elevator"
    fs_params: FsParams = field(default_factory=FsParams)
    tuning: ClusterTuning = field(default_factory=ClusterTuning.new_system)
    costs: CostTable = field(default_factory=CostTable)
    metacache_blocks: int = 64
    ordered_metadata: bool = False  # B_ORDER future work
    #: Model a drive with a volatile write cache (footnote 5's forbidden
    #: fast ack): completed writes are durable only after a FLUSH, a FUA
    #: write, or capacity destaging.  Off = the paper's write-through drive.
    write_cache: bool = False
    write_cache_bytes: int = 64 * KB
    #: End-to-end integrity: mkfs reserves a checksum region, every media
    #: write is stamped, every read verified (repro.integrity).
    checksums: bool = False
    #: Block-device layout under the file system: ``single`` (one disk,
    #: the default), ``concat:N``, ``stripe:N[:chunk=64k]``, or
    #: ``mirror:N[:read=rr|shortest]`` — see :mod:`repro.disk.volume`.
    #: The geometry above describes *each member*; multi-member layouts
    #: present a logical device spanning all of them.
    layout: str = "single"

    def with_(self, **changes: object) -> "SystemConfig":
        return replace(self, **changes)  # type: ignore[arg-type]

    # -- the paper's figure 9 rows ------------------------------------------
    @classmethod
    def config_a(cls) -> "SystemConfig":
        """SunOS 4.1.1: clustering with 120 KB clusters, rotdelay 0."""
        return cls(
            name="A",
            fs_params=FsParams.clustered(120 * KB),
            tuning=ClusterTuning.new_system(),
        )

    @classmethod
    def config_b(cls) -> "SystemConfig":
        """SunOS 4.1 code, 8 KB blocks, rotdelay 4 ms, + free behind and
        write limit."""
        return cls(
            name="B",
            fs_params=FsParams(rotdelay_ms=4.0, maxcontig=1),
            tuning=ClusterTuning.old_system(freebehind=True,
                                            write_limit=240 * KB),
        )

    @classmethod
    def config_c(cls) -> "SystemConfig":
        """As B but without free behind."""
        return cls(
            name="C",
            fs_params=FsParams(rotdelay_ms=4.0, maxcontig=1),
            tuning=ClusterTuning.old_system(freebehind=False,
                                            write_limit=240 * KB),
        )

    @classmethod
    def config_d(cls) -> "SystemConfig":
        """A close approximation of a stock SunOS 4.1 installation."""
        return cls(
            name="D",
            fs_params=FsParams(rotdelay_ms=4.0, maxcontig=1),
            tuning=ClusterTuning.old_system(freebehind=False, write_limit=0),
        )

    @classmethod
    def preset(cls, name: str, scheduler: "str | None" = None,
               layout: "str | None" = None) -> "SystemConfig":
        """Figure-9 row ``name`` with the disk-queue scheduler and/or the
        block-device layout overridden; None or "" keeps the row's own."""
        overrides = {"scheduler": scheduler, "layout": layout}
        return cls.by_name(name).with_(
            **{key: value for key, value in overrides.items() if value})

    @classmethod
    def by_name(cls, name: str) -> "SystemConfig":
        presets = {
            "A": cls.config_a, "B": cls.config_b,
            "C": cls.config_c, "D": cls.config_d,
        }
        try:
            return presets[name.upper()]()
        except KeyError:
            raise ValueError(f"unknown configuration {name!r}") from None
