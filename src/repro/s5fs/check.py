"""s5check: offline consistency checking for S5FS.

The System V analogue of fsck's core phases, used by the tests to show the
baseline's on-disk state is sane too: every data block is either on the
free-list chain or claimed by exactly one inode, directory entries point
at allocated inodes, every allocated inode has an entry, and the
superblock's ``tfree`` matches the chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import CorruptionError
from repro.s5fs.ondisk import (
    S5_NDIRECT, S5_ROOT_INO, S5Dinode, S5Superblock,
    iter_ptrs, iter_s5_dirents, unpack_free_chain_block,
)
from repro.ufs.ondisk import IFDIR, IFMT

if TYPE_CHECKING:  # pragma: no cover
    from repro.disk.store import DiskStore


@dataclass
class S5CheckReport:
    findings: list[str] = field(default_factory=list)
    inodes_checked: int = 0
    free_blocks: int = 0
    claimed_blocks: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings

    def problem(self, text: str) -> None:
        self.findings.append(text)


def s5check(store: "DiskStore") -> S5CheckReport:
    """Check the S5 file system on ``store``."""
    report = S5CheckReport()
    sb = S5Superblock.unpack(store.read(2, 2))
    bsize = sb.bsize
    per_block = bsize // 512

    def read_block(blk: int) -> bytes:
        return store.read(blk * per_block, per_block)

    # -- walk the free chain ------------------------------------------------
    free: set[int] = set()
    entries = [b for b in sb.free[:sb.nfree]]
    chain_guard = 0
    while entries:
        chain_next = entries[0]
        for blk in entries[1:]:
            if blk:
                if blk in free:
                    report.problem(f"block {blk} twice on the free list")
                free.add(blk)
        if chain_next == 0:
            break
        if chain_next in free:
            report.problem(f"chain block {chain_next} already free")
            break
        free.add(chain_next)  # the holder itself is a free block
        nfree, blocks = unpack_free_chain_block(read_block(chain_next))
        entries = blocks[:nfree]
        chain_guard += 1
        if chain_guard > sb.fsize:
            report.problem("free chain does not terminate")
            break
    report.free_blocks = len(free)
    if len(free) != sb.tfree:
        report.problem(
            f"superblock tfree {sb.tfree} but chain holds {len(free)}"
        )

    # -- walk the inodes ---------------------------------------------------------
    claims: dict[int, int] = {}
    modes: dict[int, int] = {}

    def claim(ino: int, blk: int) -> None:
        if not sb.data_start <= blk < sb.fsize:
            report.problem(f"inode {ino}: block {blk} out of range")
            return
        if blk in free:
            report.problem(f"block {blk} free but claimed by inode {ino}")
        if blk in claims:
            report.problem(
                f"block {blk} claimed by inodes {claims[blk]} and {ino}"
            )
        claims[blk] = ino
        report.claimed_blocks += 1

    def claim_tree(ino: int, blk: int, depth: int) -> None:
        """Block ``blk`` and everything it names through ``depth`` levels
        of pointer blocks (0: a data block)."""
        claim(ino, blk)
        if depth:
            for child in iter_ptrs(read_block(blk)):
                if child:
                    claim_tree(ino, child, depth - 1)

    for ino in range(sb.inodes):
        blk_addr, off = sb.inode_location(ino)
        din = S5Dinode.unpack(read_block(blk_addr)[off:off + 64])
        if not din.is_allocated or ino < S5_ROOT_INO:
            continue
        report.inodes_checked += 1
        modes[ino] = din.mode
        nblocks = (din.size + bsize - 1) // bsize
        for lbn in range(min(nblocks, S5_NDIRECT)):
            if din.addrs[lbn]:
                claim(ino, din.addrs[lbn])
        for depth, slot in enumerate((S5_NDIRECT, S5_NDIRECT + 1), start=1):
            if din.addrs[slot]:
                claim_tree(ino, din.addrs[slot], depth)

    # -- the flat root directory -----------------------------------------------------
    root_blk, root_off = sb.inode_location(S5_ROOT_INO)
    root = S5Dinode.unpack(read_block(root_blk)[root_off:root_off + 64])
    if (root.mode & IFMT) != IFDIR:
        report.problem("root inode is not a directory")
        return report
    nblocks = (root.size + bsize - 1) // bsize
    named = {S5_ROOT_INO}
    for lbn in range(min(nblocks, S5_NDIRECT)):
        blk = root.addrs[lbn]
        if blk == 0:
            report.problem("hole in the root directory")
            continue
        try:
            entries = iter_s5_dirents(read_block(blk))
        except CorruptionError as exc:
            report.problem(f"root directory block {blk}: {exc}")
            continue
        for _, ino, name in entries:
            if name in (".", ".."):
                continue
            named.add(ino)
            if ino not in modes:
                report.problem(
                    f"entry {name!r} points at unallocated inode {ino}"
                )
    for ino in sorted(modes.keys() - named):
        report.problem(f"inode {ino} is allocated but no entry names it")
    return report
