"""File system parameters (the knobs ``newfs``/``tunefs`` expose).

The paper's whole enhancement is expressible as tuning plus code: the
on-disk format carries ``rotdelay`` and ``maxcontig``, and the clustered
kernel reinterprets ``maxcontig`` as the cluster size ("previously, when
rotdelay was zero, maxcontig had no meaning, but now it always indicates
cluster size").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.units import KB


@dataclass(frozen=True)
class FsParams:
    """mkfs-time parameters; stored in the superblock."""

    #: Logical block size in bytes.
    bsize: int = 8 * KB
    #: Fragment size in bytes (bsize/fsize must be 1, 2, 4, or 8).
    fsize: int = 1 * KB
    #: Cylinders per cylinder group.
    cpg: int = 16
    #: Bytes of data space per inode (determines inodes per group).
    nbpi: int = 4 * KB
    #: Fraction of space kept free (the FFS 10 % reserve the paper credits
    #: for the allocator's ability to allocate contiguously).
    minfree_pct: int = 10
    #: Rotational delay between successive blocks, in milliseconds.
    #: 4 ms (one 8 KB block time) is the classic pre-clustering tuning;
    #: 0 asks the allocator for contiguous layout.
    rotdelay_ms: float = 4.0
    #: Maximum contiguous blocks; with clustering this is the cluster size.
    maxcontig: int = 1
    #: Reserve an integrity region (per-fragment checksums + metadata
    #: replicas) in the device tail and stamp every write against it.
    checksums: bool = False

    def __post_init__(self) -> None:
        if self.bsize % self.fsize != 0 or self.bsize // self.fsize not in (1, 2, 4, 8):
            raise ValueError("bsize/fsize must be 1, 2, 4, or 8")
        if self.bsize % 4096 not in (0,) or self.bsize < 4096:
            raise ValueError("bsize must be a multiple of 4096")
        if self.fsize % 512 != 0:
            raise ValueError("fsize must be a multiple of the sector size")
        if self.cpg <= 0:
            raise ValueError("cpg must be positive")
        if not 0 <= self.minfree_pct < 50:
            raise ValueError("minfree_pct must be in [0, 50)")
        if self.rotdelay_ms < 0:
            raise ValueError("rotdelay_ms must be >= 0")
        if self.maxcontig < 1:
            raise ValueError("maxcontig must be >= 1")

    @property
    def frag(self) -> int:
        """Fragments per block."""
        return self.bsize // self.fsize

    def fsb_to_sector(self, frag_addr: int) -> int:
        """Convert a fragment address to a disk sector (fsbtodb)."""
        return frag_addr * (self.fsize // 512)

    def sector_to_fsb(self, sector: int) -> int:
        """Convert a disk sector to a fragment address (dbtofsb)."""
        return sector // (self.fsize // 512)

    @classmethod
    def clustered(cls, cluster_bytes: int = 56 * KB, **kwargs: object) -> "FsParams":
        """The paper's tuning: rotdelay 0, maxcontig = cluster size.

        56 KB is the paper's default ("there are still drivers out there
        with 16 bit limitations"); the benchmarked configuration A uses
        120 KB.
        """
        base = cls(**kwargs)  # type: ignore[arg-type]
        if cluster_bytes % base.bsize != 0:
            raise ValueError("cluster size must be a multiple of the block size")
        return cls(
            bsize=base.bsize, fsize=base.fsize, cpg=base.cpg, nbpi=base.nbpi,
            minfree_pct=base.minfree_pct, rotdelay_ms=0.0,
            maxcontig=cluster_bytes // base.bsize, checksums=base.checksums,
        )
