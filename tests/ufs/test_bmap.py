"""Tests for bmap: translation, the contiguous-length extension, holes,
indirect blocks, truncation."""

import pytest

from repro.errors import InvalidArgumentError
from repro.ufs import bmap
from repro.ufs.inode import Inode
from repro.ufs.ondisk import Dinode, IFREG, NDADDR, max_lbn, nindir


@pytest.fixture
def mount(system):
    return system.mount


@pytest.fixture
def ip(mount):
    return mount._incore(10, Dinode(mode=IFREG, nlink=1)).inode


def alloc_lbns(system, mount, ip, lbns, frags=None):
    frags = frags if frags is not None else mount.sb.frag
    addrs = {}
    for lbn in lbns:
        addrs[lbn] = system.run(bmap.bmap_alloc(mount, ip, lbn, frags))
    return addrs


def test_hole_translates_to_zero(system, mount, ip):
    addr, length = system.run(bmap.bmap_read(mount, ip, 0, 4))
    assert addr == bmap.HOLE
    assert length == 1


def test_alloc_then_read_back(system, mount, ip):
    ip.size = 3 * mount.sb.bsize
    addrs = alloc_lbns(system, mount, ip, [0, 1, 2])
    for lbn in (0, 1, 2):
        addr, _ = system.run(bmap.bmap_read(mount, ip, lbn, 1))
        assert addr == addrs[lbn]


def test_contiguous_length_returned(system, mount, ip):
    """The paper's modification: bmap returns how far the file continues
    contiguously, capped at maxcontig."""
    ip.size = 8 * mount.sb.bsize
    alloc_lbns(system, mount, ip, range(8))
    addr, length = system.run(bmap.bmap_read(mount, ip, 0, 15))
    assert length == 8
    addr, length = system.run(bmap.bmap_read(mount, ip, 0, 4))
    assert length == 4  # capped at maxcontig
    addr, length = system.run(bmap.bmap_read(mount, ip, 5, 15))
    assert length == 3  # bounded by EOF


def test_contig_broken_by_gap(system, mount, ip):
    """A fragmented file reports shorter runs — clustering adapts."""
    sb = mount.sb
    ip.size = 4 * sb.bsize
    a0 = system.run(bmap.bmap_alloc(mount, ip, 0, sb.frag))
    a1 = system.run(bmap.bmap_alloc(mount, ip, 1, sb.frag))
    # Force a discontiguity: free lbn 1's block, burn it, reallocate.
    mount.allocator.free_frags(ip, a1, sb.frag)
    decoy = Inode(mount, 11, Dinode(mode=IFREG, nlink=1))
    system.run(mount.allocator.alloc_block(decoy, a1))
    yielded = system.run(bmap.set_pointer(mount, ip, 1, 0))
    a1b = system.run(bmap.bmap_alloc(mount, ip, 1, sb.frag))
    assert a1b != a0 + sb.frag
    addr, length = system.run(bmap.bmap_read(mount, ip, 0, 15))
    assert (addr, length) == (a0, 1)


def test_indirect_blocks(system, mount, ip):
    sb = mount.sb
    lbn = NDADDR + 3
    ip.size = (lbn + 1) * sb.bsize
    addr = system.run(bmap.bmap_alloc(mount, ip, lbn, sb.frag))
    assert ip.indirect != bmap.HOLE
    got, _ = system.run(bmap.bmap_read(mount, ip, lbn, 1))
    assert got == addr
    # Neighbouring indirect lbns are still holes.
    got2, _ = system.run(bmap.bmap_read(mount, ip, NDADDR, 1))
    assert got2 == bmap.HOLE


def test_double_indirect_blocks(system, mount, ip):
    sb = mount.sb
    n = nindir(sb.bsize)
    lbn = NDADDR + n + 5
    ip.size = (lbn + 1) * sb.bsize
    addr = system.run(bmap.bmap_alloc(mount, ip, lbn, sb.frag))
    assert ip.dindirect != bmap.HOLE
    got, _ = system.run(bmap.bmap_read(mount, ip, lbn, 1))
    assert got == addr


def test_bmap_cache_speeds_repeat_translations(system, mount, ip):
    from repro.core import BmapCache

    ip.bmap_cache = BmapCache()
    ip.size = 4 * mount.sb.bsize
    alloc_lbns(system, mount, ip, range(4))
    system.run(bmap.bmap_read(mount, ip, 0, 4))
    assert ip.bmap_cache.misses >= 1
    addr1, _ = system.run(bmap.bmap_read(mount, ip, 2, 2))
    assert ip.bmap_cache.hits >= 1
    addr0, _ = system.run(bmap.bmap_read(mount, ip, 0, 1))
    assert addr1 == addr0 + 2 * mount.sb.frag


def test_bmap_cache_invalidated_on_pointer_change(system, mount, ip):
    from repro.core import BmapCache

    ip.bmap_cache = BmapCache()
    ip.size = 2 * mount.sb.bsize
    alloc_lbns(system, mount, ip, [0])
    system.run(bmap.bmap_read(mount, ip, 0, 1))
    assert len(ip.bmap_cache) == 1
    system.run(bmap.bmap_alloc(mount, ip, 1, mount.sb.frag))
    assert len(ip.bmap_cache) == 0


def test_frag_tail_growth_in_place(system, mount, ip):
    """A small file's tail grows fragment by fragment."""
    sb = mount.sb
    # Contract: bmap_alloc is called before ip.size is raised (as rdwr
    # does), so blksize() still reflects the old tail length.
    addr = system.run(bmap.bmap_alloc(mount, ip, 0, 2))
    ip.size = 2 * sb.fsize  # 2 KB
    assert ip.blocks == 2
    addr2 = system.run(bmap.bmap_alloc(mount, ip, 0, 5))
    ip.size = 5 * sb.fsize
    assert ip.blocks == 5
    assert addr2 == addr  # extended in place on a fresh fs


def test_frags_rejected_beyond_direct_blocks(system, mount, ip):
    """Indirect blocks always hold full blocks."""
    sb = mount.sb
    lbn = NDADDR + 1
    ip.size = (lbn + 1) * sb.bsize
    system.run(bmap.bmap_alloc(mount, ip, lbn, 2))  # silently full block
    got, _ = system.run(bmap.bmap_read(mount, ip, lbn, 1))
    assert got % sb.frag == 0
    assert ip.blocks >= sb.frag


def test_truncate_frees_everything(system, mount, ip):
    sb = mount.sb
    free_before = (sb.cs_nbfree, sb.cs_nffree)
    lbns = list(range(3)) + [NDADDR + 1, NDADDR + nindir(sb.bsize) + 1]
    ip.size = (max(lbns) + 1) * sb.bsize
    alloc_lbns(system, mount, ip, lbns)
    assert ip.blocks > 0
    system.run(bmap.truncate_blocks(mount, ip))
    assert ip.blocks == 0
    assert ip.size == 0
    assert ip.indirect == bmap.HOLE and ip.dindirect == bmap.HOLE
    assert (sb.cs_nbfree, sb.cs_nffree) == free_before


def test_validation(system, mount, ip):
    with pytest.raises(InvalidArgumentError):
        system.run(bmap.bmap_read(mount, ip, -1, 1))
    with pytest.raises(InvalidArgumentError):
        system.run(bmap.bmap_read(mount, ip, 0, 0))
    with pytest.raises(InvalidArgumentError):
        system.run(bmap.bmap_alloc(mount, ip, 0, 0))
    huge = max_lbn(mount.sb.bsize)
    with pytest.raises(InvalidArgumentError):
        system.run(bmap.bmap_read(mount, ip, huge, 1))
