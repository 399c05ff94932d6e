"""The FFS allocator with the rotational layout policy.

This is the machinery the paper *relies on* rather than changes: "There were
no changes to the allocator.  The UFS allocator has always been able to
allocate files contiguously."  What changes is the *preference* it is asked
for: with ``rotdelay = 0``, :meth:`Allocator.blkpref` asks for the block
immediately after the previous one; with ``rotdelay > 0`` it asks for a
block one rotational gap later (figure 4's interleaved layout).

Policies implemented (per [McKusick]):

* preferred-block allocation with same-group fallback scan (which is what
  produces contiguous runs when the preference is "previous + 1");
* quadratic rehash across cylinder groups, then brute-force scan;
* the ``minfree`` reserve — the 10 % slack the paper credits for the
  allocator "think[ing] ahead enough" to keep files contiguous;
* ``maxbpg`` spill: a single file stops hogging a group after a quota of
  blocks and continues in the next group;
* fragments: the tail of a small file occupies a best-fit run of fragments
  inside a partially-used block, extended or moved as the file grows;
* inode allocation: directories spread to the emptiest groups, plain files
  cluster with their directory.

All bitmap state is the parsed, authoritative copy of the on-disk cylinder
groups held by the mount; ``mount.sync()`` packs it back to disk.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from repro.errors import NoSpaceError
from repro.ufs.ondisk import IFDIR

if TYPE_CHECKING:  # pragma: no cover
    from repro.ufs.inode import Inode
    from repro.ufs.mount import UfsMount


class Allocator:
    """Block, fragment, and inode allocation for one mounted UFS."""

    def __init__(self, mount: "UfsMount"):
        self.mount = mount
        self.sb = mount.sb

    # -- policy: where should the next block go? --------------------------------
    def rotdelay_gap_frags(self) -> int:
        """The rotational gap in fragments (rounded up to whole blocks,
        since full blocks are block aligned).  Zero when rotdelay is 0."""
        sb = self.sb
        if sb.rotdelay_ms <= 0:
            return 0
        sectors_per_ms = sb.nsect * sb.rps / 1000.0
        gap_sectors = sb.rotdelay_ms * sectors_per_ms
        frag_sectors = sb.fsize // 512
        gap_frags = -(-gap_sectors // frag_sectors)
        # Round up to a whole block so the next block stays aligned.
        blocks = -(-gap_frags // sb.frag)
        return int(blocks) * sb.frag

    def maxbpg(self) -> int:
        """Blocks one file may allocate in a group before spilling."""
        return max(1, self.sb.fpg // self.sb.frag // 4)

    def blkpref(self, ip: "Inode", lbn: int, prev_addr: int) -> int:
        """Preferred fragment address for logical block ``lbn``.

        ``prev_addr`` is the address of block ``lbn - 1`` (0 if none).
        """
        sb = self.sb
        if prev_addr == 0:
            # No previous block: start in the inode's group (or rotate to a
            # fresh group for later sections of a big file).
            cgx = sb.cg_of_inode(ip.ino) % sb.ncg
            return sb.cg_data_frag(cgx)
        cgx = sb.cg_of_frag(prev_addr)
        if ip.pref_cg != cgx:
            ip.pref_cg = cgx
            ip.blocks_in_cg = 0
        if ip.blocks_in_cg >= self.maxbpg():
            # Spill to the next group with average free space.
            nxt = self._best_group(start=(cgx + 1) % sb.ncg)
            ip.pref_cg = nxt
            ip.blocks_in_cg = 0
            return sb.cg_data_frag(nxt)
        return prev_addr + sb.frag + self.rotdelay_gap_frags()

    def _best_group(self, start: int) -> int:
        """The first group at/after ``start`` with >= average free blocks."""
        sb = self.sb
        avg = max(1, sb.cs_nbfree // sb.ncg)
        for i in range(sb.ncg):
            cgx = (start + i) % sb.ncg
            if self.mount.cgs[cgx].nbfree >= avg:
                return cgx
        return start

    # -- full blocks ------------------------------------------------------------------
    def _reserve_ok(self) -> bool:
        """True if allocation is allowed under the minfree reserve."""
        sb = self.sb
        free_frags = sb.cs_nbfree * sb.frag + sb.cs_nffree
        reserve = sb.total_frags * sb.minfree // 100
        return free_frags > reserve

    def alloc_block(self, ip: "Inode", pref: int) -> Generator[Any, Any, int]:
        """Allocate one full block, as close to ``pref`` as possible."""
        yield from self.mount.cpu.work("alloc", self.mount.cpu.costs.alloc_block)
        if not self._reserve_ok():
            raise NoSpaceError("file system full (minfree reserve)")
        sb = self.sb
        pref_cg = min(sb.cg_of_frag(pref), sb.ncg - 1) if pref else sb.cg_of_frag(
            sb.cg_data_frag(0))
        addr = self._alloc_block_cg(pref_cg, pref)
        if addr is None:
            addr = self._hash_groups(pref_cg, lambda cgx: self._alloc_block_cg(cgx, 0))
        if addr is None:
            raise NoSpaceError("no free blocks in any cylinder group")
        ip.blocks_in_cg += 1
        ip.blocks += sb.frag
        ip.mark_dirty()
        return addr

    def _alloc_block_cg(self, cgx: int, pref: int) -> int | None:
        """Take a free block in group ``cgx``, preferring ``pref``."""
        sb = self.sb
        cg = self.mount.cgs[cgx]
        if cg.nbfree <= 0:
            return None
        base = sb.cgbase(cgx)
        data_start, end = sb.cg_data_range(cgx)
        frag = sb.frag
        # Scan forward from the preference (or the rotor), wrapping once.
        start = -1
        if pref and sb.cg_of_frag(pref) == cgx:
            start = (pref - base) // frag * frag
        if start < data_start:
            start = max(cg.frag_rotor, data_start) // frag * frag
        rel = cg.find_free_block(start, data_start, end, frag)
        if rel < 0:
            return None
        self._take_frags(cgx, rel, frag)
        cg.frag_rotor = rel + frag
        return base + rel

    def free_block(self, ip: "Inode | None", addr: int) -> None:
        """Free one full block."""
        sb = self.sb
        cgx = sb.cg_of_frag(addr)
        self._release_frags(cgx, addr - sb.cgbase(cgx), sb.frag)
        if ip is not None:
            ip.blocks -= sb.frag
            ip.mark_dirty()

    # -- fragments ---------------------------------------------------------------------
    def alloc_frags(self, ip: "Inode", pref: int, nfrags: int
                    ) -> Generator[Any, Any, int]:
        """Allocate a run of ``nfrags`` fragments inside one block."""
        sb = self.sb
        if not 1 <= nfrags <= sb.frag:
            raise ValueError(f"nfrags must be in [1, {sb.frag}]")
        if nfrags == sb.frag:
            return (yield from self.alloc_block(ip, pref))
        yield from self.mount.cpu.work("alloc", self.mount.cpu.costs.alloc_frag)
        if not self._reserve_ok():
            raise NoSpaceError("file system full (minfree reserve)")
        pref_cg = min(sb.cg_of_frag(pref), sb.ncg - 1) if pref else 0
        addr = self._hash_groups(pref_cg, lambda cgx: self._alloc_frags_cg(cgx, nfrags))
        if addr is None:
            raise NoSpaceError("no fragment run available")
        ip.blocks += nfrags
        ip.mark_dirty()
        return addr

    def _alloc_frags_cg(self, cgx: int, nfrags: int) -> int | None:
        """Best-fit fragment run in ``cgx``: the smallest suitable run in a
        partially-used block; break a whole block only as a last resort."""
        sb = self.sb
        cg = self.mount.cgs[cgx]
        base = sb.cgbase(cgx)
        rel = cg.find_frag_run(nfrags, *sb.cg_data_range(cgx), sb.frag)
        if rel >= 0:
            self._take_frags(cgx, rel, nfrags)
            return base + rel
        # Break a free block, returning its unused tail.
        block_addr = self._alloc_block_cg(cgx, 0)
        if block_addr is not None:
            self._release_frags(cgx, block_addr - base + nfrags,
                                sb.frag - nfrags)
        return block_addr

    def realloc_frags(self, ip: "Inode", old_addr: int, old_n: int,
                      new_n: int, pref: int) -> Generator[Any, Any, int]:
        """Grow a fragment run from ``old_n`` to ``new_n`` fragments.

        Extends in place when the following fragments are free (and stay in
        the same block); otherwise allocates a new run and frees the old
        (the caller's dirty page supplies the data, so no media copy).
        """
        sb = self.sb
        if not old_n < new_n <= sb.frag:
            raise ValueError("realloc must grow within one block")
        cgx = sb.cg_of_frag(old_addr)
        cg = self.mount.cgs[cgx]
        base = sb.cgbase(cgx)
        rel = old_addr - base
        same_block = (rel % sb.frag) + new_n <= sb.frag
        extra = new_n - old_n
        if same_block and cg.run_is_free(rel + old_n, extra):
            yield from self.mount.cpu.work(
                "alloc", self.mount.cpu.costs.alloc_frag
            )
            self._take_frags(cgx, rel + old_n, extra)
            ip.blocks += extra
            ip.mark_dirty()
            return old_addr
        new_addr = yield from self.alloc_frags(ip, pref or old_addr, new_n)
        self.free_frags(ip, old_addr, old_n)
        return new_addr

    def free_frags(self, ip: "Inode | None", addr: int, nfrags: int) -> None:
        sb = self.sb
        if not 1 <= nfrags <= sb.frag:
            raise ValueError("bad fragment count")
        cgx = sb.cg_of_frag(addr)
        self._release_frags(cgx, addr - sb.cgbase(cgx), nfrags)
        if ip is not None:
            ip.blocks -= nfrags
            ip.mark_dirty()

    # -- bitmap bookkeeping --------------------------------------------------------------
    def _mark_frags(self, cgx: int, rel: int, n: int, free: bool) -> None:
        """Flip ``n`` fragments from ``rel`` in the map and move each
        touched block between the nbfree and nffree counters."""
        sb = self.sb
        cg = self.mount.cgs[cgx]
        frag = sb.frag
        for block_rel in range(rel // frag * frag, rel + n, frag):
            low, high = max(rel, block_rel), min(rel + n, block_rel + frag)
            before = cg.block_free_count(block_rel, frag)
            cg.mark_frags(low, high - low, free, sb.cgbase(cgx))
            after = before + (high - low if free else low - high)
            for count, sign in ((before, -1), (after, 1)):
                if count == frag:
                    cg.nbfree += sign
                    sb.cs_nbfree += sign
                else:
                    cg.nffree += sign * count
                    sb.cs_nffree += sign * count
            self.mount.mark_cg_dirty(cgx)

    def _take_frags(self, cgx: int, rel: int, n: int) -> None:
        self._mark_frags(cgx, rel, n, free=False)

    def _release_frags(self, cgx: int, rel: int, n: int) -> None:
        self._mark_frags(cgx, rel, n, free=True)

    def _hash_groups(self, start: int, fn) -> int | None:
        """FFS group search: preferred, quadratic rehash, then brute scan."""
        sb = self.sb
        result = fn(start)
        if result is not None:
            return result
        step = 1
        tried = {start}
        while step < sb.ncg:
            cgx = (start + step) % sb.ncg
            if cgx not in tried:
                tried.add(cgx)
                result = fn(cgx)
                if result is not None:
                    return result
            step *= 2
        for cgx in range(sb.ncg):
            if cgx not in tried:
                result = fn(cgx)
                if result is not None:
                    return result
        return None

    # -- inodes ----------------------------------------------------------------------------
    def alloc_inode(self, pref_cg: int, mode: int) -> Generator[Any, Any, int]:
        """Allocate an inode.  Directories spread out; files stay close."""
        yield from self.mount.cpu.work("alloc", self.mount.cpu.costs.alloc_frag)
        sb = self.sb
        is_dir = (mode & IFDIR) == IFDIR
        if is_dir:
            cgx = self._emptiest_dir_group()
        else:
            cgx = pref_cg % sb.ncg
        ino = self._hash_groups(cgx, self._alloc_inode_cg)
        if ino is None:
            raise NoSpaceError("out of inodes")
        if is_dir:
            cg = self.mount.cgs[sb.cg_of_inode(ino)]
            cg.ndir += 1
            sb.cs_ndir += 1
        return ino

    def _emptiest_dir_group(self) -> int:
        """Group with above-average free inodes and fewest directories."""
        sb = self.sb
        avg = sb.cs_nifree // sb.ncg
        best, best_ndir = 0, None
        for cgx, cg in enumerate(self.mount.cgs):
            if cg.nifree < avg or cg.nifree == 0:
                continue
            if best_ndir is None or cg.ndir < best_ndir:
                best, best_ndir = cgx, cg.ndir
        return best

    def _alloc_inode_cg(self, cgx: int) -> int | None:
        sb = self.sb
        cg = self.mount.cgs[cgx]
        if cg.nifree <= 0:
            return None
        rel = cg.find_free_inode(cg.inode_rotor % sb.ipg, sb.ipg)
        if rel < 0:
            return None
        cg.set_inode(rel, False)
        cg.nifree -= 1
        sb.cs_nifree -= 1
        cg.inode_rotor = rel + 1
        self.mount.mark_cg_dirty(cgx)
        return cgx * sb.ipg + rel

    def free_inode(self, ino: int, was_dir: bool) -> None:
        sb = self.sb
        cgx = sb.cg_of_inode(ino)
        cg = self.mount.cgs[cgx]
        rel = ino % sb.ipg
        if cg.inode_is_free(rel):
            raise RuntimeError(f"double free of inode {ino}")
        cg.set_inode(rel, True)
        cg.nifree += 1
        sb.cs_nifree += 1
        if was_dir:
            cg.ndir -= 1
            sb.cs_ndir -= 1
        self.mount.mark_cg_dirty(cgx)
