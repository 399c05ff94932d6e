"""fsck: offline consistency checking of the on-disk bytes.

The paper's constraint — "a change in on-disk file system format would
require changes to many system utilities, such as dump, restore, and fsck"
— is only meaningful if such utilities exist.  This fsck re-reads the raw
disk (never the in-memory mount state) and runs the classic phases:

1. inodes: valid modes, sane sizes, block pointers in range, block/fragment
   claims without duplicates, claimed counts matching ``di_blocks``;
2. directory structure: reachable from the root, ``.``/``..`` correct,
   entries pointing at allocated inodes;
3. link counts: directory references vs ``di_nlink``;
4. bitmaps and counters: claimed vs free agreement per cylinder group, and
   superblock summary totals.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import CorruptionError
from repro.ufs.ondisk import (
    CG_MAGIC, DINODE_SIZE, DIRBLKSIZ, IFDIR, IFLNK, IFMT, IFREG, NDADDR,
    ROOT_INO, SBLOCK, SBLOCK_SECTORS, CylinderGroup, Dinode, Superblock,
    differing_bits, empty_dirblock, is_fast_symlink, iter_dinodes,
    iter_dirents, iter_ptrs, max_lbn, pack_dirent, set_dirent_ino,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.disk.store import DiskStore


@dataclass
class FsckReport:
    """Findings from one fsck pass (and, in repair mode, the repairs)."""

    findings: list[str] = field(default_factory=list)
    repairs: list[str] = field(default_factory=list)
    inodes_checked: int = 0
    directories_checked: int = 0
    frags_claimed: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings

    def problem(self, text: str) -> None:
        self.findings.append(text)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        status = "CLEAN" if self.clean else f"{len(self.findings)} PROBLEM(S)"
        lines = [f"fsck: {status}; {self.inodes_checked} inodes, "
                 f"{self.directories_checked} dirs, {self.frags_claimed} frags"]
        lines.extend(f"  - {f}" for f in self.findings)
        lines.extend(f"  * repaired: {r}" for r in self.repairs)
        return "\n".join(lines)


class _Checker:
    def __init__(self, store: "DiskStore"):
        self.store = store
        self.report = FsckReport()
        #: Structured repair hints gathered alongside the findings; applied
        #: by :class:`_Repairer` when fsck runs with ``repair=True``.
        self.actions: list[tuple] = []
        self.region = store.integrity_region()
        raw = self._read_frags_raw(SBLOCK, SBLOCK_SECTORS)
        if self.region is None:
            self.sb = Superblock.unpack(raw)
        else:
            try:
                if self.region.verify_range(SBLOCK, raw):
                    raise CorruptionError(
                        "primary superblock failed integrity check")
                self.sb = Superblock.unpack(raw)
            except CorruptionError:
                # The replica in the integrity region stands in; repair
                # mode rewrites the primary from it.
                self.sb = Superblock.unpack(self.region.sb_replica())
                self.report.problem(
                    "primary superblock corrupt; using integrity replica")
                self.actions.append(("rewrite_superblock",))
        self.frag_sectors = self.sb.fsize // 512
        self.claims: dict[int, int] = {}  # frag -> claiming inode
        self.link_counts: dict[int, int] = {}  # ino -> references seen
        #: Every allocated dinode, as read by the one pass over the inode
        #: blocks; the later phases work from these, not from the disk.
        self.dinodes: dict[int, Dinode] = {}

    def _read_frags_raw(self, sector: int, nsectors: int) -> bytes:
        return self.store.read(sector, nsectors)

    def _read_frag_addr(self, frag_addr: int, nbytes: int) -> bytes:
        nsectors = -(-nbytes // 512)
        return self.store.read(frag_addr * self.frag_sectors, nsectors)

    # -- phase 1: inodes and block claims -------------------------------------
    def _claim(self, ino: int, frag_addr: int, nfrags: int) -> None:
        sb = self.sb
        for f in range(frag_addr, frag_addr + nfrags):
            if f <= 0 or f >= sb.total_frags:
                self.report.problem(
                    f"inode {ino}: fragment {f} out of range"
                )
                self.actions.append(("clear_inode", ino))
                return
            prev = self.claims.get(f)
            if prev is not None:
                self.report.problem(
                    f"fragment {f} claimed by inodes {prev} and {ino}"
                )
                self.actions.append(("clear_inode", ino))
                continue
            self.claims[f] = ino
            self.report.frags_claimed += 1

    def _file_frags(self, din: Dinode, lbn: int) -> int:
        """Fragments logical block ``lbn`` should hold, from the size."""
        sb = self.sb
        last = (din.size - 1) // sb.bsize if din.size > 0 else 0
        if lbn < last or lbn >= NDADDR:
            return sb.frag
        tail = din.size - last * sb.bsize
        return max(1, -(-tail // sb.fsize))

    def check_inodes(self) -> None:
        sb = self.sb
        per_block = sb.bsize // DINODE_SIZE
        for cgx in range(sb.ncg):
            first_ino = cgx * sb.ipg
            first_frag = sb.cg_inode_frag(cgx)
            for index in range(sb.inode_blocks_per_group):
                block = self._read_frag_addr(first_frag + index * sb.frag,
                                             sb.bsize)
                for slot, din in iter_dinodes(block):
                    ino = first_ino + index * per_block + slot
                    if ino not in (0, 1):  # reserved
                        self._check_inode(ino, din)

    def _check_inode(self, ino: int, din: Dinode) -> None:
        sb = self.sb
        self.report.inodes_checked += 1
        self.dinodes[ino] = din
        kind = din.mode & IFMT
        if kind not in (IFREG, IFDIR, IFLNK):
            self.report.problem(f"inode {ino}: unknown mode {din.mode:#o}")
            self.actions.append(("clear_inode", ino))
            return
        if kind == IFLNK:
            if is_fast_symlink(din):
                # Fast symlink: the pointer words are target bytes.
                if din.blocks != 0:
                    self.report.problem(
                        f"symlink {ino}: fast link claims blocks"
                    )
                    self.actions.append(("set_blocks", ino, 0))
            else:
                nfrags = max(1, -(-din.size // sb.fsize))
                self._claim(ino, din.direct[0], nfrags)
                if din.blocks != nfrags:
                    self.report.problem(
                        f"symlink {ino}: holds {nfrags} frags but "
                        f"di_blocks says {din.blocks}"
                    )
                    self.actions.append(("set_blocks", ino, nfrags))
            return
        claimed = 0
        last_lbn = (din.size - 1) // sb.bsize if din.size > 0 else -1
        for lbn in range(min(last_lbn + 1, NDADDR)):
            addr = din.direct[lbn]
            if addr == 0:
                continue
            nfrags = self._file_frags(din, lbn)
            self._claim(ino, addr, nfrags)
            claimed += nfrags
        # Blocks past the direct pointers are counted via the pointer
        # blocks, never by iterating up to the (untrusted) size.
        if din.indirect:
            claimed += self._walk_pointer_block(ino, din.indirect, 1)
        if din.dindirect:
            claimed += self._walk_pointer_block(ino, din.dindirect, 2)
        if claimed != din.blocks:
            self.report.problem(
                f"inode {ino}: holds {claimed} frags but di_blocks says "
                f"{din.blocks}"
            )
            self.actions.append(("set_blocks", ino, claimed))
        if din.size > max_lbn(sb.bsize) * sb.bsize:
            self.report.problem(f"inode {ino}: impossible size {din.size}")
            self.actions.append(("clear_inode", ino))

    def _walk_pointer_block(self, ino: int, addr: int, depth: int) -> int:
        sb = self.sb
        self._claim(ino, addr, sb.frag)
        claimed = sb.frag
        if addr <= 0 or addr + sb.frag > sb.total_frags:
            return claimed  # _claim flagged it; nothing readable behind it
        block = self._read_frag_addr(addr, sb.bsize)
        for child in iter_ptrs(block):
            if child == 0:
                continue
            if depth > 1:
                claimed += self._walk_pointer_block(ino, child, depth - 1)
            else:
                self._claim(ino, child, sb.frag)
                claimed += sb.frag
        return claimed

    # -- phase 2/3: directory structure and link counts ---------------------------
    def check_directories(self) -> None:
        sb = self.sb
        seen: set[int] = set()
        # (ino, parent, referencing entry's (frag addr, offset) or None)
        stack = [(ROOT_INO, ROOT_INO, None)]
        while stack:
            ino, parent, loc = stack.pop()
            if ino in seen:
                self.report.problem(f"directory {ino} reached twice")
                if loc is not None:
                    self.actions.append(("zero_dirent",) + loc)
                continue
            seen.add(ino)
            din = self.dinodes.get(ino)
            if din is None or not din.is_dir:
                self.report.problem(f"inode {ino} expected directory")
                if loc is not None:
                    self.actions.append(("zero_dirent",) + loc)
                continue
            self.report.directories_checked += 1
            names: set[str] = set()
            nblocks = din.size // sb.bsize
            for lbn in range(min(nblocks, NDADDR)):
                addr = din.direct[lbn]
                if addr == 0:
                    self.report.problem(f"directory {ino}: hole at block {lbn}")
                    self.actions.append(("clear_inode", ino))
                    continue
                if addr + sb.frag > sb.total_frags:
                    continue  # _claim flagged it; nothing readable behind it
                try:
                    entries = iter_dirents(self._read_frag_addr(addr, sb.bsize))
                except CorruptionError as exc:
                    self.report.problem(f"directory {ino}: {exc}")
                    self.actions.append(("clear_dirblock", addr))
                    continue
                for offset, child_ino, name in entries:
                    if name in names:
                        self.report.problem(
                            f"directory {ino}: duplicate name {name!r}"
                        )
                        self.actions.append(("zero_dirent", addr, offset))
                    names.add(name)
                    if name == ".":
                        if child_ino != ino:
                            self.report.problem(f"directory {ino}: bad '.'")
                            self.actions.append(("fix_dirent", addr, offset, ino))
                        continue
                    if name == "..":
                        if child_ino != parent:
                            self.report.problem(f"directory {ino}: bad '..'")
                            self.actions.append(
                                ("fix_dirent", addr, offset, parent))
                        self.link_counts[parent] = self.link_counts.get(parent, 0) + 1
                        continue
                    child = self.dinodes.get(child_ino)
                    if child is None:
                        self.report.problem(
                            f"directory {ino}: entry {name!r} -> unallocated "
                            f"inode {child_ino}"
                        )
                        self.actions.append(("zero_dirent", addr, offset))
                        continue
                    self.link_counts[child_ino] = self.link_counts.get(child_ino, 0) + 1
                    if child.is_dir:
                        stack.append((child_ino, ino, (addr, offset)))
            if "." not in names or ".." not in names:
                self.report.problem(f"directory {ino}: missing '.' or '..'")
                if ino == ROOT_INO and din.direct[0] != 0:
                    # Clearing the root is unrecoverable (every later pass
                    # would find "expected directory" forever): rebuild its
                    # dot entries in place.  Entries sharing the first
                    # DIRBLKSIZ chunk are sacrificed; the orphan cascade
                    # collects whatever they referenced.
                    self.actions.append(
                        ("rebuild_dot", din.direct[0], ino, parent))
                else:
                    self.actions.append(("clear_inode", ino))
        # Note: the root's '..' entry points at itself and was counted in
        # the scan, standing in for the parent-directory entry it lacks.
        for ino, din in self.dinodes.items():
            expected = self.link_counts.get(ino, 0)
            if din.is_dir:
                expected += 1  # its own '.'
                if ino not in seen:
                    self.report.problem(f"directory {ino} unreachable from root")
                    self.actions.append(("clear_inode", ino))
                    continue
            if din.nlink != expected:
                self.report.problem(
                    f"inode {ino}: nlink {din.nlink} but {expected} references"
                )
                if expected == 0 and ino != ROOT_INO:
                    # Orphan: allocated but referenced by nothing (its
                    # creating dirent never became durable).  Clear it.
                    self.actions.append(("clear_inode", ino))
                else:
                    self.actions.append(("set_nlink", ino, expected))

    # -- phase 4: bitmaps and counters -----------------------------------------------
    @functools.cached_property
    def claimed_by_group(self) -> "dict[int, list[int]]":
        """Group -> group-relative claimed fragments (after phase 1)."""
        groups: dict[int, list[int]] = defaultdict(list)
        for frag_addr in self.claims:
            groups[frag_addr // self.sb.fpg].append(frag_addr % self.sb.fpg)
        return groups

    @functools.cached_property
    def allocated_by_group(self) -> "dict[int, list[int]]":
        """Group -> allocated inode numbers (after phase 1)."""
        groups: dict[int, list[int]] = defaultdict(list)
        for ino in self.dinodes:
            groups[ino // self.sb.ipg].append(ino)
        return groups

    def expected_maps(self, cgx: int, cg: CylinderGroup
                      ) -> tuple[bytearray, bytearray]:
        """The fragment and inode maps group ``cgx`` should carry, given
        what phase 1 saw: every data-block fragment free unless claimed,
        every inode free unless allocated or reserved.  They start as copies
        of ``cg``'s own maps, so the bits that describe no data block (the
        group's metadata area) compare equal and are rewritten as found."""
        sb = self.sb
        data_start, end = sb.cg_data_range(cgx)
        frags = bytearray(cg.frag_bitmap)
        CylinderGroup.fill_free(frags, data_start, end)
        for rel in self.claimed_by_group.get(cgx, ()):
            if data_start <= rel < end:
                frags[rel >> 3] &= ~(1 << (rel & 7))
        inodes = bytearray(cg.inode_bitmap)
        CylinderGroup.fill_free(inodes, 0, sb.ipg)
        reserved = (0, 1) if cgx == 0 else ()
        for ino in (*reserved, *self.allocated_by_group.get(cgx, ())):
            rel = ino % sb.ipg
            inodes[rel >> 3] &= ~(1 << (rel & 7))
        return frags, inodes

    def check_bitmaps(self) -> None:
        sb = self.sb
        total_nbfree = total_nffree = total_nifree = total_ndir = 0
        for cgx in range(sb.ncg):
            data = self._read_frag_addr(sb.cg_header_frag(cgx), sb.bsize)
            try:
                cg = CylinderGroup.unpack(data, sb)
            except CorruptionError as exc:
                self.report.problem(f"group {cgx}: {exc}")
                continue
            base = sb.cgbase(cgx)
            frags, inodes = self.expected_maps(cgx, cg)
            # Only where the map found differs from the map expected is
            # there anything to say, one finding per bit in ascending order.
            for rel in differing_bits(cg.frag_bitmap, frags):
                frag_addr = base + rel
                if cg.frag_is_free(rel):
                    self.report.problem(
                        f"fragment {frag_addr} free in bitmap but claimed "
                        f"by inode {self.claims[frag_addr]}"
                    )
                else:
                    self.report.problem(
                        f"fragment {frag_addr} allocated in bitmap but "
                        f"unclaimed (leak)"
                    )
            nbfree, nffree = cg.free_counts(*sb.cg_data_range(cgx), sb.frag)
            if nbfree != cg.nbfree:
                self.report.problem(
                    f"group {cgx}: nbfree {cg.nbfree} but bitmap shows {nbfree}"
                )
            if nffree != cg.nffree:
                self.report.problem(
                    f"group {cgx}: nffree {cg.nffree} but bitmap shows {nffree}"
                )
            nifree = cg.inodes_free(sb.ipg)
            if nifree != cg.nifree:
                self.report.problem(
                    f"group {cgx}: nifree {cg.nifree} but bitmap shows {nifree}"
                )
            for rel in differing_bits(cg.inode_bitmap, inodes):
                ino = cgx * sb.ipg + rel
                if not cg.inode_is_free(rel):
                    self.report.problem(f"inode {ino} leaked in bitmap")
                elif ino in self.dinodes:  # a reserved inode may read free
                    self.report.problem(
                        f"inode {ino} free in bitmap but allocated on disk"
                    )
            total_nbfree += cg.nbfree
            total_nffree += cg.nffree
            total_nifree += cg.nifree
            total_ndir += cg.ndir
        if total_nbfree != sb.cs_nbfree:
            self.report.problem(
                f"superblock nbfree {sb.cs_nbfree} != groups {total_nbfree}"
            )
        if total_nffree != sb.cs_nffree:
            self.report.problem(
                f"superblock nffree {sb.cs_nffree} != groups {total_nffree}"
            )
        if total_nifree != sb.cs_nifree:
            self.report.problem(
                f"superblock nifree {sb.cs_nifree} != groups {total_nifree}"
            )
        if total_ndir != sb.cs_ndir:
            self.report.problem(
                f"superblock ndir {sb.cs_ndir} != groups {total_ndir}"
            )


class _Repairer:
    """Applies a checker's structured repair hints to the raw bytes, then
    rebuilds both bitmaps and every counter from the repaired claims.

    Clearing a damaged directory orphans its children; the caller re-checks
    and re-repairs until a pass comes back clean, so cascading damage is
    handled by iteration rather than cleverness — exactly how the real
    fsck's multiple phases interact.
    """

    def __init__(self, store: "DiskStore", sb: Superblock):
        self.store = store
        self.sb = sb
        self.frag_sectors = sb.fsize // 512
        self.region = store.integrity_region()

    # -- raw byte access ----------------------------------------------------
    def _read_block(self, frag_addr: int) -> bytearray:
        nsectors = -(-self.sb.bsize // 512)
        return bytearray(self.store.read(frag_addr * self.frag_sectors, nsectors))

    def _write_block(self, frag_addr: int, data: bytes) -> None:
        nsectors = -(-len(data) // 512)
        padded = bytes(data).ljust(nsectors * 512, b"\x00")
        self.store.write(frag_addr * self.frag_sectors, padded)
        if self.region is not None:
            # Every repair write restamps, or the repair itself would be
            # indicted on the next read.
            self.region.stamp_range(frag_addr * self.frag_sectors, padded)

    def _patch(self, frag_addr: int, offset: int, payload: bytes) -> None:
        block = self._read_block(frag_addr)
        block[offset:offset + len(payload)] = payload
        self._write_block(frag_addr, bytes(block))

    def _repoint_dirent(self, frag_addr: int, offset: int, ino: int) -> None:
        block = self._read_block(frag_addr)
        set_dirent_ino(block, offset, ino)
        self._write_block(frag_addr, bytes(block))

    def _rewrite_dinode(self, ino: int, mutate) -> None:
        frag_addr, offset = self.sb.inode_location(ino)
        block = self._read_block(frag_addr)
        din = Dinode.unpack(bytes(block[offset:offset + DINODE_SIZE]))
        mutate(din)
        block[offset:offset + DINODE_SIZE] = din.pack()
        self._write_block(frag_addr, bytes(block))

    # -- the repairs --------------------------------------------------------
    def apply(self, actions: "list[tuple]", log: "list[str]") -> None:
        done: set[tuple] = set()
        for action in actions:
            if action in done:
                continue
            done.add(action)
            kind = action[0]
            if kind == "clear_inode":
                ino = action[1]
                frag_addr, offset = self.sb.inode_location(ino)
                self._patch(frag_addr, offset, b"\x00" * DINODE_SIZE)
                log.append(f"cleared inode {ino}")
            elif kind == "set_nlink":
                _, ino, nlink = action

                def set_nlink(din, nlink=nlink):
                    din.nlink = nlink

                self._rewrite_dinode(ino, set_nlink)
                log.append(f"inode {ino}: nlink set to {nlink}")
            elif kind == "set_blocks":
                _, ino, blocks = action

                def set_blocks(din, blocks=blocks):
                    din.blocks = blocks

                self._rewrite_dinode(ino, set_blocks)
                log.append(f"inode {ino}: di_blocks set to {blocks}")
            elif kind == "zero_dirent":
                _, frag_addr, offset = action
                self._repoint_dirent(frag_addr, offset, 0)
                log.append(f"zeroed dirent at frag {frag_addr}+{offset}")
            elif kind == "fix_dirent":
                _, frag_addr, offset, ino = action
                self._repoint_dirent(frag_addr, offset, ino)
                log.append(f"dirent at frag {frag_addr}+{offset} -> inode {ino}")
            elif kind == "clear_dirblock":
                _, frag_addr = action
                self._write_block(frag_addr, empty_dirblock(self.sb.bsize))
                log.append(f"reset directory block at frag {frag_addr}")
            elif kind == "rebuild_dot":
                _, frag_addr, ino, parent = action
                chunk = (pack_dirent(ino, ".", 12)
                         + pack_dirent(parent, "..", DIRBLKSIZ - 12))
                self._patch(frag_addr, 0, chunk)
                log.append(f"rebuilt '.'/'..' of directory {ino}")
            elif kind == "rewrite_superblock":
                assert self.region is not None
                replica = self.region.sb_replica()
                self.store.write(SBLOCK, replica)
                self.region.stamp_range(SBLOCK, replica)
                log.append("rewrote primary superblock from integrity replica")
        self._rebuild_maps(log)

    def _rebuild_maps(self, log: "list[str]") -> None:
        """Recompute every bitmap and counter from a fresh claims scan."""
        scan = _Checker(self.store)
        scan.check_inodes()
        sb = scan.sb
        total_nbfree = total_nffree = total_nifree = total_ndir = 0
        for cgx in range(sb.ncg):
            base = sb.cgbase(cgx)
            header = sb.cg_header_frag(cgx)
            try:
                cg = CylinderGroup.unpack(bytes(self._read_block(header)), sb)
            except CorruptionError:
                # Header itself unreadable: rebuild it from scratch.  A
                # zeroed bitmap means "allocated", which is correct for the
                # metadata area; expected_maps sets the data-area bits.
                cg = CylinderGroup(
                    CG_MAGIC, cgx, sb.cg_end_frag(cgx) - base, 0, 0, 0, 0,
                    0, 0, bytearray((sb.fpg + 7) // 8),
                    bytearray((sb.ipg + 7) // 8),
                )
            cg.frag_bitmap, cg.inode_bitmap = scan.expected_maps(cgx, cg)
            cg.nbfree, cg.nffree = cg.free_counts(
                *sb.cg_data_range(cgx), sb.frag)
            cg.nifree = cg.inodes_free(sb.ipg)
            cg.ndir = sum(1 for ino in scan.allocated_by_group.get(cgx, ())
                          if scan.dinodes[ino].is_dir)
            self._write_block(header, cg.pack(sb))
            total_nbfree += cg.nbfree
            total_nffree += cg.nffree
            total_nifree += cg.nifree
            total_ndir += cg.ndir
        sb.cs_nbfree, sb.cs_nffree = total_nbfree, total_nffree
        sb.cs_nifree, sb.cs_ndir = total_nifree, total_ndir
        packed = sb.pack()
        self.store.write(SBLOCK, packed)
        if self.region is not None:
            self.region.stamp_range(SBLOCK, packed)
        log.append("rebuilt bitmaps, group counters, and superblock summary")


def _check(store: "DiskStore") -> _Checker:
    checker = _Checker(store)
    checker.check_inodes()
    checker.check_directories()
    checker.check_bitmaps()
    return checker


#: Check/repair rounds a repairing fsck runs at most before giving up.
MAX_REPAIR_PASSES = 8


def fsck(store: "DiskStore", repair: bool = False) -> FsckReport:
    """Check (and with ``repair=True``, repair) the file system on ``store``.

    The returned report carries the first pass's findings — what was
    *detected* — plus, in repair mode, every repair applied across however
    many check/repair passes (at most :data:`MAX_REPAIR_PASSES`) it took
    to converge.  Callers verify by
    running a second ``fsck(store)`` and asserting ``clean``.
    """
    checker = _check(store)
    report = checker.report
    if not repair or report.clean:
        return report
    for _ in range(MAX_REPAIR_PASSES):
        _Repairer(store, checker.sb).apply(checker.actions, report.repairs)
        checker = _check(store)
        if checker.report.clean:
            break
    return report
