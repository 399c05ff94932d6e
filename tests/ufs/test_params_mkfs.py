"""Tests for FsParams and mkfs."""

import pytest

from repro.disk import DiskGeometry, DiskStore
from repro.errors import InvalidArgumentError
from repro.ufs import FsParams, fsck, mkfs
from repro.ufs.ondisk import Dinode, ROOT_INO, Superblock, iter_dirents
from repro.units import KB


def test_params_validation():
    with pytest.raises(ValueError):
        FsParams(bsize=8192, fsize=512)  # ratio 16
    with pytest.raises(ValueError):
        FsParams(fsize=700)
    with pytest.raises(ValueError):
        FsParams(cpg=0)
    with pytest.raises(ValueError):
        FsParams(minfree_pct=60)
    with pytest.raises(ValueError):
        FsParams(rotdelay_ms=-1)
    with pytest.raises(ValueError):
        FsParams(maxcontig=0)


def test_params_defaults_match_classic_tuning():
    params = FsParams()
    assert params.bsize == 8 * KB
    assert params.frag == 8
    assert params.rotdelay_ms == 4.0
    assert params.maxcontig == 1


def test_clustered_params():
    params = FsParams.clustered(120 * KB)
    assert params.rotdelay_ms == 0.0
    assert params.maxcontig == 15
    with pytest.raises(ValueError):
        FsParams.clustered(100)  # not a block multiple


def test_fsb_sector_conversion():
    params = FsParams()
    assert params.fsb_to_sector(10) == 20


@pytest.fixture
def small_disk():
    geom = DiskGeometry.uniform(cylinders=100, heads=4, sectors_per_track=32)
    return geom, DiskStore(geom.total_sectors)


def test_mkfs_writes_valid_superblock(small_disk):
    geom, store = small_disk
    sb = mkfs(store, geom)
    reread = Superblock.unpack(store.read(16, 16))
    assert reread == sb
    assert sb.ncg >= 1
    assert sb.total_frags <= geom.total_sectors // 2


def test_mkfs_root_directory(small_disk):
    geom, store = small_disk
    sb = mkfs(store, geom)
    frag, off = sb.inode_location(ROOT_INO)
    block = store.read(frag * 2, 16)
    root = Dinode.unpack(block[off:off + 128])
    assert root.is_dir
    assert root.nlink == 2
    assert root.size == sb.bsize
    dirblock = store.read(root.direct[0] * 2, 16)
    names = [name for _, _, name in iter_dirents(dirblock)]
    assert names == [".", ".."]


def test_mkfs_is_fsck_clean(small_disk):
    geom, store = small_disk
    mkfs(store, geom)
    report = fsck(store)
    assert report.clean, str(report)


def test_mkfs_fsck_clean_with_clustered_params(small_disk):
    geom, store = small_disk
    mkfs(store, geom, FsParams.clustered(56 * KB))
    assert fsck(store).clean


def test_mkfs_counters_account_for_metadata(small_disk):
    geom, store = small_disk
    sb = mkfs(store, geom)
    # All free space is in the data areas; group 0 lost the root block.
    per_group_data = (sb.cg_end_frag(1) - sb.cg_data_frag(1)) // sb.frag
    expected = per_group_data * sb.ncg - 1
    # Group 0 has two fewer metadata-free blocks (boot + superblock).
    expected -= 2
    assert sb.cs_nbfree == expected


def test_mkfs_too_small_disk_rejected():
    geom = DiskGeometry.uniform(cylinders=2, heads=1, sectors_per_track=16)
    store = DiskStore(geom.total_sectors)
    with pytest.raises(InvalidArgumentError):
        mkfs(store, geom)


def test_mkfs_zoned_geometry():
    geom = DiskGeometry.zoned_520mb()
    store = DiskStore(geom.total_sectors)
    sb = mkfs(store, geom, FsParams(cpg=32))
    assert fsck(store).clean
    assert sb.ncg > 1


def test_mkfs_image_is_byte_identical_to_the_recorded_one():
    # Golden digests of freshly made file systems, recorded before
    # _build_group switched from one set_frag/set_inode call per bit to
    # byte-wide fills: bulk filling may not move a single on-disk bit.
    from repro.kernel import System, SystemConfig

    plain = System(SystemConfig.config_a())
    plain.mkfs()
    assert plain.store.digest() == (
        "e058295f57998c9194ddc8ebb02cf47858a846f974399cee069fa80a267e6ae3")
    striped = System(SystemConfig.config_a().with_(layout="stripe:4",
                                                   checksums=True))
    striped.mkfs()
    assert [m.store.digest() for m in striped.volume.members] == [
        "e017ff00333f6b001c9d334089f3cfe0a2046bae7aee99b62674b6adc7f4f5c4",
        "faec32c295febbd7b13fc8e6a5364d75be828f687af3b982b7a5cae6d7bdda9a",
        "61637c145ea0a583f5143922f6914c912741a5d892307093ef50ee64caf0cce8",
        "ca45fe496df18b498fc5b69030ee3687c6a1337615d3b1047c2fb49571c6265b",
    ]


@pytest.mark.parametrize("nbits,start,end", [
    (64, 0, 64), (64, 5, 6), (64, 5, 12), (70, 3, 70), (70, 8, 64),
    (70, 9, 9), (13, 0, 13), (40, 7, 33),
])
def test_fill_free_equals_bit_by_bit(nbits, start, end):
    from repro.ufs.ondisk import CylinderGroup

    bulk = bytearray((nbits + 7) // 8)
    CylinderGroup.fill_free(bulk, start, end)
    single = bytearray(len(bulk))
    for i in range(start, end):
        CylinderGroup._set(single, i, True)
    assert bulk == single
