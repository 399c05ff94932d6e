"""Tests for fsck: it must find the corruptions it claims to find."""

import pytest

from repro.disk import DiskGeometry, DiskStore
from repro.ufs import FsParams, fsck, mkfs
from repro.ufs.ondisk import DINODE_SIZE, Dinode, IFREG, ROOT_INO


@pytest.fixture
def fresh():
    geom = DiskGeometry.uniform(cylinders=100, heads=4, sectors_per_track=32)
    store = DiskStore(geom.total_sectors)
    sb = mkfs(store, geom, FsParams(cpg=16))
    return store, sb


def read_dinode(store, sb, ino):
    frag, off = sb.inode_location(ino)
    block = store.read(frag * 2, 16)
    return Dinode.unpack(block[off:off + DINODE_SIZE]), frag, off


def write_dinode(store, sb, ino, din):
    frag, off = sb.inode_location(ino)
    block = bytearray(store.read(frag * 2, 16))
    block[off:off + DINODE_SIZE] = din.pack()
    store.write(frag * 2, bytes(block))


def test_fresh_fs_is_clean(fresh):
    store, _ = fresh
    assert fsck(store).clean


def test_detects_wrong_nlink(fresh):
    store, sb = fresh
    root, _, _ = read_dinode(store, sb, ROOT_INO)
    root.nlink = 7
    write_dinode(store, sb, ROOT_INO, root)
    report = fsck(store)
    assert any("nlink" in f for f in report.findings)


def test_detects_double_claimed_fragment(fresh):
    store, sb = fresh
    root, _, _ = read_dinode(store, sb, ROOT_INO)
    # Create a bogus file inode claiming the root directory's block.
    bogus = Dinode(mode=IFREG | 0o644, nlink=0, size=sb.bsize,
                   direct=(root.direct[0],) + (0,) * 11, blocks=sb.frag)
    write_dinode(store, sb, 5, bogus)
    report = fsck(store)
    assert any("claimed by inodes" in f for f in report.findings)


def test_detects_block_leak(fresh):
    store, sb = fresh
    # Mark a data fragment allocated in the bitmap without any claimant.
    from repro.ufs.ondisk import CylinderGroup

    header = sb.cg_header_frag(0)
    cg = CylinderGroup.unpack(store.read(header * 2, 16), sb)
    victim = sb.cg_data_frag(0) - sb.cgbase(0) + sb.frag  # after root block
    for i in range(sb.frag):
        cg.set_frag(victim + i, False)
    cg.nbfree -= 1
    store.write(header * 2, cg.pack(sb))
    report = fsck(store)
    assert any("leak" in f for f in report.findings)


def test_detects_bitmap_free_but_claimed(fresh):
    store, sb = fresh
    from repro.ufs.ondisk import CylinderGroup

    header = sb.cg_header_frag(0)
    cg = CylinderGroup.unpack(store.read(header * 2, 16), sb)
    rel = sb.cg_data_frag(0) - sb.cgbase(0)  # the root block
    for i in range(sb.frag):
        cg.set_frag(rel + i, True)
    cg.nbfree += 1
    store.write(header * 2, cg.pack(sb))
    report = fsck(store)
    assert any("free in bitmap but claimed" in f for f in report.findings)


def test_detects_bad_counter_totals(fresh):
    store, sb = fresh
    sb.cs_nbfree += 5
    store.write(16, sb.pack())
    report = fsck(store)
    assert any("superblock nbfree" in f for f in report.findings)


def test_detects_entry_to_unallocated_inode(fresh):
    store, sb = fresh
    root, _, _ = read_dinode(store, sb, ROOT_INO)
    dirblock = bytearray(store.read(root.direct[0] * 2, 16))
    # Point '..' slot area at a new bogus entry: overwrite '..' name area
    # with an entry for an unallocated inode by editing the second dirent.
    from repro.ufs.ondisk import pack_dirent, DIRBLKSIZ

    dirblock[12:DIRBLKSIZ] = pack_dirent(99, "ghost", DIRBLKSIZ - 12)
    store.write(root.direct[0] * 2, bytes(dirblock))
    report = fsck(store)
    assert any("unallocated" in f for f in report.findings)


def test_detects_blocks_count_mismatch(fresh):
    store, sb = fresh
    root, _, _ = read_dinode(store, sb, ROOT_INO)
    root.blocks = 99
    write_dinode(store, sb, ROOT_INO, root)
    report = fsck(store)
    assert any("di_blocks" in f for f in report.findings)


def test_detects_out_of_range_pointer(fresh):
    store, sb = fresh
    bogus = Dinode(mode=IFREG | 0o644, nlink=0, size=sb.bsize,
                   direct=(sb.total_frags + 100,) + (0,) * 11,
                   blocks=sb.frag)
    write_dinode(store, sb, 5, bogus)
    report = fsck(store)
    assert any("out of range" in f for f in report.findings)


def test_corrupt_huge_size_is_reported_not_iterated(fresh):
    """di_size is 64 bits of untrusted disk: a dead loop once ran up to it
    (1 << 44 took half a minute, 1 << 60 never came back)."""
    store, sb = fresh
    bogus = Dinode(mode=IFREG | 0o644, nlink=0, size=1 << 60)
    write_dinode(store, sb, 5, bogus)
    report = fsck(store, repair=True)
    assert any("impossible size" in f for f in report.findings)
    assert report.repairs
    assert fsck(store).clean


def test_report_str_format(fresh):
    store, _ = fresh
    text = str(fsck(store))
    assert "CLEAN" in text
