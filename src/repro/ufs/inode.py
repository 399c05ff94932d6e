"""The in-memory inode.

"An inode is an in-memory version of the control information associated
with a file", plus the "meta information that the file system uses to help
tune performance": the read-ahead prediction fields (``nextr``/``nextrio``),
the delayed-write cluster fields (``delayoff``/``delaylen``), the write
throttle, and (future work) the bmap cache.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core import BmapCache, ReadAheadState, WriteClusterState, WriteThrottle
from repro.ufs.ondisk import Dinode, IFDIR, IFLNK, IFMT, IFREG, NDADDR

if TYPE_CHECKING:  # pragma: no cover
    from repro.ufs.mount import UfsMount


class Inode:
    """An active file's control information."""

    def __init__(self, mount: "UfsMount", ino: int, din: Dinode):
        self.mount = mount
        self.ino = ino
        self.mode = din.mode
        self.nlink = din.nlink
        self.size = din.size
        self.atime = din.atime
        self.mtime = din.mtime
        self.ctime = din.ctime
        self.direct = list(din.direct)
        self.indirect = din.indirect
        self.dindirect = din.dindirect
        self.blocks = din.blocks  # fragments held
        self.gen = din.gen
        self.dirty = False

        # Performance meta information (never on disk).
        #: Conservative holes flag (the UFS_HOLE future work): True unless
        #: di_blocks proves every logical block is backed.
        self.maybe_holes = not self._blocks_prove_no_holes(mount, din)
        #: "Data in the inode" future work: small files' bytes cached here.
        self.inline_data: "bytes | None" = None
        self.readahead = ReadAheadState()
        self.writecluster = WriteClusterState()
        self.throttle = WriteThrottle(
            mount.engine, mount.tuning.write_limit, mount.throttle_stats,
            owner=f"inode {ino}")
        self.bmap_cache = BmapCache() if mount.tuning.bmap_cache else None
        #: Blocks this file has allocated in its current preferred group,
        #: for the maxbpg group-spill policy.
        self.blocks_in_cg = 0
        self.pref_cg = -1

    @staticmethod
    def _blocks_prove_no_holes(mount: "UfsMount", din: Dinode) -> bool:
        """True when di_blocks equals the frag count of a hole-free file of
        this size (including its indirect blocks) — an exact check."""
        sb = mount.sb
        if din.size == 0:
            return True
        last = (din.size - 1) // sb.bsize
        frags = 0
        for lbn in range(min(last, NDADDR - 1) + 1):
            if lbn < last or lbn >= NDADDR:
                frags += sb.frag
            else:
                tail = din.size - last * sb.bsize
                frags += max(1, -(-tail // sb.fsize))
        if last >= NDADDR:
            frags += (last - NDADDR + 1) * sb.frag  # indirect-range data
            frags += sb.frag  # the indirect block
            nindir = sb.bsize // 4
            if last >= NDADDR + nindir:
                inner = (last - NDADDR - nindir) // nindir + 1
                frags += (1 + inner) * sb.frag  # dindirect + inner blocks
        return din.blocks == frags

    # -- types --------------------------------------------------------------
    @property
    def cluster_blocks(self) -> int:
        """The cluster size in blocks (maxcontig, per the paper)."""
        return max(1, self.mount.sb.maxcontig)

    @property
    def is_dir(self) -> bool:
        return (self.mode & IFMT) == IFDIR

    @property
    def is_reg(self) -> bool:
        return (self.mode & IFMT) == IFREG

    @property
    def is_symlink(self) -> bool:
        return (self.mode & IFMT) == IFLNK

    # -- geometry helpers ------------------------------------------------------
    def blksize(self, lbn: int) -> int:
        """Size in bytes of logical block ``lbn`` (the tail of a small file
        may be a fragment run shorter than a full block)."""
        sb = self.mount.sb
        if lbn < 0:
            raise ValueError("negative lbn")
        last = max(0, (self.size - 1)) // sb.bsize
        if self.size == 0 or lbn < last or lbn >= NDADDR:
            return sb.bsize
        if lbn > last:
            return sb.bsize
        tail = self.size - last * sb.bsize
        frags = -(-tail // sb.fsize)
        return frags * sb.fsize

    # -- dinode conversion --------------------------------------------------------
    def to_dinode(self) -> Dinode:
        return Dinode(
            mode=self.mode, nlink=self.nlink, size=self.size,
            atime=self.atime, mtime=self.mtime, ctime=self.ctime,
            direct=tuple(self.direct), indirect=self.indirect,
            dindirect=self.dindirect, blocks=self.blocks, gen=self.gen,
        )

    def mark_dirty(self) -> None:
        """The dinode needs writing back."""
        self.dirty = True
        self.mtime = int(self.mount.engine.now)

    def invalidate_translations(self) -> None:
        """Block pointers changed: drop any cached bmap extents."""
        if self.bmap_cache is not None:
            self.bmap_cache.invalidate()

    def recycle(self) -> None:
        """The contents vanished out from under the inode (truncate, last
        link destroyed): forget every piece of performance meta-state that
        described the old bytes.  The sequential predictions (``nextr`` /
        ``trigger`` / ``nextrio``) would otherwise survive into the file's
        next life and fire read-ahead at offsets past the new EOF; the
        delayed-write cluster names pages that were just invalidated."""
        self.readahead.reset()
        self.writecluster.delayoff = 0
        self.writecluster.delaylen = 0
        self.writecluster.health.reset()
        self.invalidate_translations()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "dir" if self.is_dir else "reg" if self.is_reg else "?"
        return f"<Inode {self.ino} {kind} size={self.size}>"
