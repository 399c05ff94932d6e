"""The cylinder-group map kernels against the per-bit loops they replaced.

``RefAllocator`` carries the allocator's map-walking methods exactly as they
stood before the byte-table kernels (``CylinderGroup.find_*``,
``free_counts``, ``mark_frags``) took over; nothing else may scan a map bit
by bit.  Each property builds one random group — any ``frag`` in
{1, 2, 4, 8}, group 0's shifted data area or a short, ragged last group,
random maps, rotors and preferences — hands identical copies to both
allocators and demands the same answer, the same maps, counters and rotors
afterwards, and the same ``double allocation`` / ``double free`` message.

The allocation-trace golden below pins the same thing end to end.
"""

import copy
import json
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ufs.alloc import Allocator
from repro.ufs.ondisk import (
    CG_MAGIC, SUPERBLOCK_MAGIC, CylinderGroup, Superblock,
)

from tests.properties import alloc_trace


# -- the reference: the loops deleted from src/, verbatim -----------------------
def ref_block_is_free(cg, rel_block_frag, frag):
    return all(cg.frag_is_free(rel_block_frag + i) for i in range(frag))


def ref_free_counts(cg, data_start, end, frag):
    nbfree = nffree = 0
    for block_rel in range(data_start, end - frag + 1, frag):
        free_here = sum(
            cg.frag_is_free(block_rel + i) for i in range(frag)
        )
        if free_here == frag:
            nbfree += 1
        else:
            nffree += free_here
    return nbfree, nffree


class RefAllocator(Allocator):
    def _alloc_block_cg(self, cgx, pref):
        sb = self.sb
        cg = self.mount.cgs[cgx]
        base = sb.cgbase(cgx)
        data_start = sb.cg_data_frag(cgx) - base
        end = sb.cg_end_frag(cgx) - base
        if cg.nbfree <= 0:
            return None
        frag = sb.frag

        def aligned(rel):
            return (rel // frag) * frag

        candidates = []
        if pref and sb.cg_of_frag(pref) == cgx:
            rel = aligned(pref - base)
            if rel >= data_start:
                candidates.append(rel)
        rotor = aligned(max(cg.frag_rotor, data_start))
        if rotor + frag > end:
            rotor = data_start
        # Scan forward from the preference (or rotor), wrapping once.
        rel = candidates[0] if candidates else rotor
        nblocks = (end - data_start) // frag
        for _ in range(nblocks + 1):
            if rel + frag > end:
                rel = data_start
            if ref_block_is_free(cg, rel, frag):
                self._take_frags(cgx, rel, frag)
                cg.frag_rotor = rel + frag
                return base + rel
            rel += frag
        return None

    def _alloc_frags_cg(self, cgx, nfrags):
        sb = self.sb
        cg = self.mount.cgs[cgx]
        base = sb.cgbase(cgx)
        data_start = sb.cg_data_frag(cgx) - base
        end = sb.cg_end_frag(cgx) - base
        frag = sb.frag
        best_rel, best_len = -1, frag + 1
        for block_rel in range(data_start, end - frag + 1, frag):
            free_here = sum(
                1 for i in range(frag) if cg.frag_is_free(block_rel + i)
            )
            if free_here == frag or free_here < nfrags:
                continue  # whole blocks are kept for block allocation
            # Find the best run inside this block.
            run = 0
            for i in range(frag + 1):
                if i < frag and cg.frag_is_free(block_rel + i):
                    run += 1
                    continue
                if nfrags <= run < best_len:
                    best_rel, best_len = block_rel + i - run, run
                run = 0
            if best_len == nfrags:
                break
        if best_rel >= 0:
            self._take_frags(cgx, best_rel, nfrags)
            return base + best_rel
        # Break a free block.
        if cg.nbfree > 0:
            block_addr = self._alloc_block_cg(cgx, 0)
            if block_addr is not None:
                rel = block_addr - base
                # Return the unused tail of the broken block.
                self._release_frags(cgx, rel + nfrags, frag - nfrags)
                return block_addr
        return None

    def _block_free_frags(self, cg, block_rel):
        return sum(1 for i in range(self.sb.frag) if cg.frag_is_free(block_rel + i))

    def _adjust_counts(self, cgx, block_rel, before, after):
        sb = self.sb
        cg = self.mount.cgs[cgx]
        if before == sb.frag:
            cg.nbfree -= 1
            sb.cs_nbfree -= 1
        else:
            cg.nffree -= before
            sb.cs_nffree -= before
        if after == sb.frag:
            cg.nbfree += 1
            sb.cs_nbfree += 1
        else:
            cg.nffree += after
            sb.cs_nffree += after
        self.mount.mark_cg_dirty(cgx)

    def _take_frags(self, cgx, rel, n):
        sb = self.sb
        cg = self.mount.cgs[cgx]
        frag = sb.frag
        first_block = (rel // frag) * frag
        last_block = ((rel + n - 1) // frag) * frag
        for block_rel in range(first_block, last_block + 1, frag):
            before = self._block_free_frags(cg, block_rel)
            for i in range(max(rel, block_rel),
                           min(rel + n, block_rel + frag)):
                if not cg.frag_is_free(i):
                    raise RuntimeError(
                        f"double allocation of fragment {sb.cgbase(cgx) + i}"
                    )
                cg.set_frag(i, False)
            after = self._block_free_frags(cg, block_rel)
            self._adjust_counts(cgx, block_rel, before, after)

    def _release_frags(self, cgx, rel, n):
        sb = self.sb
        cg = self.mount.cgs[cgx]
        frag = sb.frag
        first_block = (rel // frag) * frag
        last_block = ((rel + n - 1) // frag) * frag
        for block_rel in range(first_block, last_block + 1, frag):
            before = self._block_free_frags(cg, block_rel)
            for i in range(max(rel, block_rel),
                           min(rel + n, block_rel + frag)):
                if cg.frag_is_free(i):
                    raise RuntimeError(
                        f"double free of fragment {sb.cgbase(cgx) + i}"
                    )
                cg.set_frag(i, True)
            after = self._block_free_frags(cg, block_rel)
            self._adjust_counts(cgx, block_rel, before, after)

    def _alloc_inode_cg(self, cgx):
        sb = self.sb
        cg = self.mount.cgs[cgx]
        if cg.nifree <= 0:
            return None
        start = cg.inode_rotor % sb.ipg
        for i in range(sb.ipg):
            rel = (start + i) % sb.ipg
            if cg.inode_is_free(rel):
                cg.set_inode(rel, False)
                cg.nifree -= 1
                sb.cs_nifree -= 1
                cg.inode_rotor = rel + 1
                self.mount.mark_cg_dirty(cgx)
                return cgx * sb.ipg + rel
        return None


# -- one random group, mounted twice ---------------------------------------------
#: Solid stretches (all allocated / all free) between noisy bytes, so whole
#: free blocks, exact fits and "no hit" all turn up at every ``frag``.
map_byte = st.one_of(st.just(0x00), st.just(0xFF), st.integers(0, 255),
                     st.sampled_from([0x0F, 0xF0, 0x3C, 0x7E, 0x81]))


def build_group(frag, ipg, cgx, nblocks, short, frag_map, inode_map,
                frag_rotor=0, inode_rotor=0):
    """(sb, cg) for group 0 (data area pushed up by the boot and superblock
    blocks) or for a last group ``short`` fragments short of ``nblocks``
    data blocks; counters are recounted bit by bit from the maps."""
    metadata = ((3 if cgx == 0 else 1) + ipg * 128 // 8192) * frag
    fpg = metadata + frag * nblocks
    sb = Superblock(
        magic=SUPERBLOCK_MAGIC, bsize=8192, fsize=8192 // frag, nsect=32,
        ntrak=4, ncyl=100, cpg=16, fpg=fpg, ipg=ipg, ncg=2, minfree=10,
        maxcontig=1, rotdelay_ms=0.0, rps=60, total_frags=2 * fpg - short)
    cg = CylinderGroup(
        CG_MAGIC, cgx, sb.cg_end_frag(cgx) - sb.cgbase(cgx), 0, 0, 0, 0,
        frag_rotor, inode_rotor,
        bytearray(frag_map.ljust((fpg + 7) // 8, b"\0")[:(fpg + 7) // 8]),
        bytearray(inode_map.ljust(ipg // 8, b"\0")[:ipg // 8]))
    base = sb.cgbase(cgx)
    cg.nbfree, cg.nffree = ref_free_counts(
        cg, sb.cg_data_frag(cgx) - base, sb.cg_end_frag(cgx) - base, frag)
    cg.nifree = sum(cg.inode_is_free(i) for i in range(ipg))
    return sb, cg


@st.composite
def groups(draw):
    frag = draw(st.sampled_from([1, 2, 4, 8]))
    ipg = draw(st.sampled_from([64, 128]))
    cgx = draw(st.integers(0, 1))
    nblocks = draw(st.integers(1, 40))
    # The last group may lose up to three blocks, stopping mid-block.
    short = draw(st.integers(0, min(3, nblocks - 1) * frag)) * cgx
    maps = st.lists(map_byte, min_size=64, max_size=64).map(bytes)
    return build_group(
        frag, ipg, cgx, nblocks, short, draw(maps), draw(maps),
        frag_rotor=draw(st.integers(0, (nblocks + 8) * frag)),
        inode_rotor=draw(st.integers(0, 2 * ipg)))


def mounted(allocator_class, sb, cg):
    """A private copy of the group behind the least mount an allocator
    needs; ``state()`` is everything a map operation may touch."""
    sb, cg = copy.deepcopy((sb, cg))
    cgs = {cg.cgx: cg}
    dirty = []
    allocator = allocator_class(
        SimpleNamespace(sb=sb, cgs=cgs, mark_cg_dirty=dirty.append))

    def state():
        return (bytes(cg.frag_bitmap), bytes(cg.inode_bitmap), cg.nbfree,
                cg.nffree, cg.nifree, cg.frag_rotor, cg.inode_rotor,
                sb.cs_nbfree, sb.cs_nffree, sb.cs_nifree, dirty)

    return allocator, state


def both(sb, cg, call):
    """Run ``call(allocator)`` on the kernels and on the reference."""
    outcomes = []
    for allocator_class in (Allocator, RefAllocator):
        allocator, state = mounted(allocator_class, sb, cg)
        try:
            outcomes.append((call(allocator), state()))
        except RuntimeError as exc:
            # The maps are forfeit once this is raised; the message (which
            # names the fragment) is the contract.
            outcomes.append(str(exc))
    return outcomes


@given(groups())
def test_counts_match_a_bit_by_bit_count(group):
    sb, cg = group
    base = sb.cgbase(cg.cgx)
    data_start = sb.cg_data_frag(cg.cgx) - base
    end = sb.cg_end_frag(cg.cgx) - base
    # cg_data_range drops a ragged last block; the per-bit count (made
    # from the raw end) never looked at one.
    assert cg.free_counts(*sb.cg_data_range(cg.cgx), sb.frag) == (
        cg.nbfree, cg.nffree)
    assert cg.inodes_free(sb.ipg) == cg.nifree
    for block_rel in range(data_start, end - sb.frag + 1, sb.frag):
        bits = [cg.frag_is_free(block_rel + i) for i in range(sb.frag)]
        assert cg.block_free_count(block_rel, sb.frag) == sum(bits)
        assert cg.block_is_free(block_rel, sb.frag) == all(bits)
        for low in range(sb.frag):
            for n in range(1, sb.frag - low + 1):
                assert (cg.run_is_free(block_rel + low, n)
                        == all(bits[low:low + n]))


@given(groups(), st.data())
def test_block_search_matches_the_rotor_scan(group, data):
    sb, cg = group
    base = sb.cgbase(cg.cgx)
    # No preference, one anywhere in this group (its metadata and any
    # missing tail included), or one in the other group.
    pref = data.draw(st.one_of(
        st.just(0), st.integers(base, base + sb.fpg - 1),
        st.integers(1, 2 * sb.fpg - 1)))
    new, ref = both(sb, cg, lambda a: a._alloc_block_cg(cg.cgx, pref))
    assert new == ref


@given(groups(), st.data())
def test_fragment_search_matches_the_best_fit_scan(group, data):
    sb, cg = group
    if sb.frag == 1:
        return  # no partial blocks: alloc_frags always takes a whole block
    nfrags = data.draw(st.integers(1, sb.frag - 1))
    new, ref = both(sb, cg, lambda a: a._alloc_frags_cg(cg.cgx, nfrags))
    assert new == ref


@given(groups())
def test_inode_search_matches_the_rotor_scan(group):
    sb, cg = group
    new, ref = both(sb, cg, lambda a: a._alloc_inode_cg(cg.cgx))
    assert new == ref


@given(groups(), st.data())
def test_take_and_release_match_bit_by_bit_marking(group, data):
    sb, cg = group
    data_start = sb.cg_data_frag(cg.cgx) - sb.cgbase(cg.cgx)
    end = sb.cg_end_frag(cg.cgx) - sb.cgbase(cg.cgx)
    rel = data.draw(st.integers(data_start, end - 1))
    # Mostly inside one block, as the allocator asks; sometimes across.
    n = data.draw(st.integers(1, min(2 * sb.frag, end - rel)))
    for name in ("_take_frags", "_release_frags"):
        new, ref = both(sb, cg,
                        lambda a: getattr(a, name)(cg.cgx, rel, n))
        assert new == ref


def test_double_allocation_and_double_free_name_the_fragment():
    sb, cg = build_group(frag=4, ipg=64, cgx=1, nblocks=6, short=0,
                         frag_map=b"", inode_map=b"")
    base = sb.cgbase(cg.cgx)
    rel = sb.cg_data_frag(cg.cgx) - base
    allocator, _ = mounted(Allocator, sb, cg)
    with pytest.raises(RuntimeError,
                       match=f"double allocation of fragment {base + rel}$"):
        allocator._take_frags(cg.cgx, rel, 1)
    allocator._release_frags(cg.cgx, rel, 1)
    with pytest.raises(RuntimeError,
                       match=f"double free of fragment {base + rel}$"):
        allocator._release_frags(cg.cgx, rel, 1)


# -- end to end: the same decisions, the same image -------------------------------
@pytest.mark.parametrize("fsize", alloc_trace.FSIZES)
def test_allocation_trace_is_the_recorded_one(fsize):
    golden = json.loads(alloc_trace.GOLDEN.read_text())[str(fsize)]
    assert alloc_trace.run(fsize) == golden
