"""Tests for on-disk structure packing."""

import pytest

from repro.errors import CorruptionError
from repro.ufs.ondisk import (
    CG_MAGIC, DINODE_SIZE, DIRBLKSIZ, SUPERBLOCK_MAGIC, CylinderGroup, Dinode,
    Dirent, Superblock, dirent_size, empty_dirblock, iter_dirents, pack_dirent,
)


def make_sb(**overrides):
    values = dict(
        magic=SUPERBLOCK_MAGIC, bsize=8192, fsize=1024, nsect=32, ntrak=4,
        ncyl=200, cpg=16, fpg=1024, ipg=256, ncg=6, minfree=10, maxcontig=7,
        rotdelay_ms=0.0, rps=60, total_frags=6144,
        cs_ndir=1, cs_nbfree=700, cs_nifree=1500, cs_nffree=5,
    )
    values.update(overrides)
    return Superblock(**values)


def test_superblock_round_trip():
    sb = make_sb(rotdelay_ms=4.0)
    data = sb.pack()
    assert len(data) == sb.bsize
    sb2 = Superblock.unpack(data)
    assert sb2 == sb


def test_superblock_bad_magic_rejected():
    data = make_sb().pack()
    with pytest.raises(CorruptionError):
        Superblock.unpack(b"\x00" * len(data))


def test_superblock_short_data_rejected():
    with pytest.raises(CorruptionError):
        Superblock.unpack(b"\x12\x34")


def test_superblock_layout_is_consistent():
    sb = make_sb()
    assert sb.cgbase(0) == 0
    assert sb.cg_header_frag(0) == 16  # past boot + superblock
    assert sb.cg_header_frag(1) == sb.fpg
    # inode area: ipg * 128 bytes = 4 blocks of 8 KB
    assert sb.inode_blocks_per_group == 4
    assert sb.cg_data_frag(1) == sb.fpg + 8 + 4 * 8
    assert sb.cg_of_frag(sb.fpg + 5) == 1
    with pytest.raises(ValueError):
        sb.cgbase(6)


def test_inode_location():
    sb = make_sb()
    frag, off = sb.inode_location(0)
    assert frag == sb.cg_inode_frag(0) and off == 0
    frag2, off2 = sb.inode_location(63)
    assert frag2 == frag and off2 == 63 * DINODE_SIZE
    frag3, off3 = sb.inode_location(64)  # next inode block
    assert frag3 == frag + 8 and off3 == 0
    frag4, _ = sb.inode_location(sb.ipg)  # first inode of group 1
    assert frag4 == sb.cg_inode_frag(1)
    with pytest.raises(ValueError):
        sb.inode_location(sb.ncg * sb.ipg)


def test_dinode_round_trip():
    din = Dinode(mode=0o100644, nlink=1, size=123456,
                 direct=tuple(range(100, 112)), indirect=500, dindirect=600,
                 blocks=128, gen=7)
    packed = din.pack()
    assert len(packed) == DINODE_SIZE
    assert Dinode.unpack(packed) == din


def test_dinode_direct_count_enforced():
    with pytest.raises(ValueError):
        Dinode(direct=(1, 2, 3))


def test_cylinder_group_round_trip():
    sb = make_sb()
    cg = CylinderGroup(
        magic=CG_MAGIC, cgx=2, ndblk=1024, nbfree=100, nffree=3, nifree=200,
        ndir=5, frag_rotor=64, inode_rotor=10,
        frag_bitmap=bytearray(128), inode_bitmap=bytearray(32),
    )
    cg.set_frag(100, True)
    cg.set_inode(7, True)
    data = cg.pack(sb)
    assert len(data) == sb.bsize
    cg2 = CylinderGroup.unpack(data, sb)
    assert cg2.frag_is_free(100) and not cg2.frag_is_free(99)
    assert cg2.inode_is_free(7) and not cg2.inode_is_free(8)
    assert cg2.nbfree == 100 and cg2.ndir == 5


def test_cg_bad_magic():
    sb = make_sb()
    with pytest.raises(CorruptionError):
        CylinderGroup.unpack(bytes(sb.bsize), sb)


def test_block_is_free_requires_all_frags():
    cg = CylinderGroup(
        magic=CG_MAGIC, cgx=0, ndblk=64, nbfree=0, nffree=0, nifree=0,
        ndir=0, frag_rotor=0, inode_rotor=0,
        frag_bitmap=bytearray(8), inode_bitmap=bytearray(1),
    )
    for i in range(8):
        cg.set_frag(i, True)
    assert cg.run_is_free(0, 8)
    cg.set_frag(3, False)
    assert not cg.run_is_free(0, 8)


def test_dirent_validation():
    with pytest.raises(ValueError):
        Dirent(1, "")
    with pytest.raises(ValueError):
        Dirent(1, "a" * 60)
    with pytest.raises(ValueError):
        Dirent(1, "a/b")
    with pytest.raises(ValueError):
        Dirent(1, "a\x00b")
    assert dirent_size("name") == 12  # 8 header + 4 + pad


def test_pack_and_iter_dirents():
    block = bytearray(empty_dirblock(8192))
    block[0:16] = pack_dirent(7, "hello", 16)
    block[16:DIRBLKSIZ] = pack_dirent(9, "world", DIRBLKSIZ - 16)
    entries = iter_dirents(bytes(block))
    assert entries == [(0, 7, "hello"), (16, 9, "world")]


def test_iter_dirents_rejects_bad_reclen():
    block = bytearray(empty_dirblock(8192))
    block[4:6] = (3).to_bytes(2, "little")  # reclen 3: too small, unaligned
    with pytest.raises(CorruptionError):
        iter_dirents(bytes(block))


def test_a_record_cut_short_by_the_block_end_is_corruption():
    """A record ending 4 bytes before the block's end leaves a header no
    bytes can hold: corruption, not a raw unpacking error."""
    block = bytearray(empty_dirblock(DIRBLKSIZ))
    block[:DIRBLKSIZ - 4] = pack_dirent(0, "", DIRBLKSIZ - 4)
    with pytest.raises(CorruptionError, match="truncated"):
        iter_dirents(bytes(block))


def test_pack_dirent_too_small_reclen():
    with pytest.raises(ValueError):
        pack_dirent(1, "longname", 8)


def test_empty_dirblock_parses_as_no_entries():
    assert iter_dirents(empty_dirblock(8192)) == []
