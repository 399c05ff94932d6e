"""fsck's findings are a contract: wording, order, and what repair leaves.

Every corruption ``test_fsck.py`` and ``test_fsck_repair.py`` build, plus
seeded single-bit flips in the fragment map, the inode map, the group
counters and the superblock totals, is checked against
``golden/fsck_findings.json``: ``fsck(store).findings`` must equal the
recorded list and ``fsck(store, repair=True)`` must leave the recorded
``store.digest()``.  The golden was recorded with the per-bit checker that
preceded the byte-table one; re-record (only when a finding is *meant* to
change) with::

    PYTHONPATH=src python -m tests.ufs.test_fsck_findings_golden
"""

import functools
import json
import random
import struct
from dataclasses import replace
from pathlib import Path

import pytest

from repro.disk import DiskGeometry, DiskStore
from repro.kernel import Proc, System, SystemConfig
from repro.ufs import FsParams, fsck, mkfs
from repro.ufs.ondisk import (
    DIRBLKSIZ, IFDIR, IFREG, ROOT_INO, CylinderGroup, Dinode, Superblock,
    pack_dirent,
)

from tests.integrity.conftest import checksum_config
from tests.ufs.conftest import small_geometry
from tests.ufs.test_fsck_repair import child_ino, read_dinode, write_dinode

GOLDEN = Path(__file__).parent / "golden" / "fsck_findings.json"
FLIP_SEEDS = range(5)
#: Byte offsets of the fields the counter flips target.
CG_COUNTERS = {"nbfree": 12, "nffree": 16, "nifree": 20, "ndir": 24}
SB_TOTALS = {"cs_ndir": 64, "cs_nbfree": 72, "cs_nifree": 80, "cs_nffree": 88}
CG_MAPS = 36  # the fragment map follows the nine-word group header


# -- images ------------------------------------------------------------------
@functools.cache
def _fresh() -> DiskStore:
    geom = DiskGeometry.uniform(cylinders=100, heads=4, sectors_per_track=32)
    store = DiskStore(geom.total_sectors)
    mkfs(store, geom, FsParams(cpg=16))
    return store


def _populate(config: SystemConfig) -> DiskStore:
    """Directories, whole-block and fragment-tailed files, a file with an
    indirect block, both kinds of symlink, and holes left by unlinks."""
    system = System.booted(config)
    proc = Proc(system)

    def work():
        yield from proc.mkdir("/d")
        yield from proc.mkdir("/d/e")
        sizes = {"/a": 12000, "/d/b": 12000, "/d/tiny": 700,
                 "/big": 120 * 1024, "/d/e/c": 20 * 1024 + 1,
                 "/gone": 5000, "/d/gone": 30000}
        for index, (name, size) in enumerate(sizes.items()):
            fd = yield from proc.creat(name)
            yield from proc.write(fd, bytes([0x5A + index]) * size)
            yield from proc.fsync(fd)
            yield from proc.close(fd)
        yield from proc.symlink("/a", "/fast")
        yield from proc.symlink("/d/e/" + "x" * 80, "/slow")
        yield from proc.unlink("/gone")
        yield from proc.unlink("/d/gone")

    system.run(work())
    system.sync()
    assert fsck(system.store).clean  # corrupt from a known-good state
    return system.store


@functools.cache
def _populated(fsize: int) -> DiskStore:
    config = SystemConfig.config_a()
    return _populate(config.with_(
        geometry=small_geometry(),
        fs_params=replace(config.fs_params, fsize=fsize)))


@functools.cache
def _checksummed() -> DiskStore:
    return _populate(checksum_config())


# -- raw-byte helpers ------------------------------------------------------------
def _sb(store) -> Superblock:
    return Superblock.unpack(store.read(16, 16))


def _sectors(sb, frag_addr):
    return frag_addr * (sb.fsize // 512), sb.bsize // 512


def _read_cg(store, sb, cgx) -> CylinderGroup:
    return CylinderGroup.unpack(
        store.read(*_sectors(sb, sb.cg_header_frag(cgx))), sb)


def _write_cg(store, sb, cg) -> None:
    store.write(_sectors(sb, sb.cg_header_frag(cg.cgx))[0], cg.pack(sb))


def _flip(store, sector, byte_offset, bit) -> None:
    """Flip one bit, ``byte_offset`` bytes past the start of ``sector``."""
    sector += byte_offset // 512
    data = bytearray(store.read(sector, 1))
    data[byte_offset % 512] ^= 1 << bit
    store.write(sector, bytes(data))


# -- the corruptions of test_fsck.py (on a fresh mkfs) -------------------------
def wrong_nlink(store, sb):
    root = read_dinode(store, sb, ROOT_INO)
    root.nlink = 7
    write_dinode(store, sb, ROOT_INO, root)


def double_claimed(store, sb):
    root = read_dinode(store, sb, ROOT_INO)
    write_dinode(store, sb, 5, Dinode(
        mode=IFREG | 0o644, nlink=0, size=sb.bsize,
        direct=(root.direct[0],) + (0,) * 11, blocks=sb.frag))


def block_leak(store, sb):
    cg = _read_cg(store, sb, 0)
    victim = sb.cg_data_frag(0) - sb.cgbase(0) + sb.frag  # after root block
    for i in range(sb.frag):
        cg.set_frag(victim + i, False)
    cg.nbfree -= 1
    _write_cg(store, sb, cg)


def bitmap_free_but_claimed(store, sb):
    cg = _read_cg(store, sb, 0)
    rel = sb.cg_data_frag(0) - sb.cgbase(0)  # the root block
    for i in range(sb.frag):
        cg.set_frag(rel + i, True)
    cg.nbfree += 1
    _write_cg(store, sb, cg)


def bad_counter_totals(store, sb):
    sb.cs_nbfree += 5
    store.write(16, sb.pack())


def entry_to_unallocated(store, sb):
    root = read_dinode(store, sb, ROOT_INO)
    sector = _sectors(sb, root.direct[0])[0]
    block = bytearray(store.read(sector, sb.bsize // 512))
    block[12:DIRBLKSIZ] = pack_dirent(sb.ipg - 3, "ghost", DIRBLKSIZ - 12)
    store.write(sector, bytes(block))


def blocks_mismatch(store, sb):
    root = read_dinode(store, sb, ROOT_INO)
    root.blocks = 99
    write_dinode(store, sb, ROOT_INO, root)


def out_of_range_pointer(store, sb):
    write_dinode(store, sb, 5, Dinode(
        mode=IFREG | 0o644, nlink=0, size=sb.bsize,
        direct=(sb.total_frags + 100,) + (0,) * 11, blocks=sb.frag))


# -- the corruptions of test_fsck_repair.py (on a populated image) ------------
def orphan_inode(store, sb):
    write_dinode(store, sb, sb.ipg - 2, Dinode(
        mode=IFREG | 0o644, nlink=1, size=0, direct=(0,) * 12, blocks=0))


def stale_bitmaps_and_counters(store, sb):
    cg = _read_cg(store, sb, 0)
    rel = sb.cg_data_frag(0) - sb.cgbase(0)  # the root directory's block
    for i in range(sb.frag):
        cg.set_frag(rel + i, True)  # lie: mark it free while claimed
    cg.nbfree += 3
    _write_cg(store, sb, cg)
    sb.cs_nffree += 11
    store.write(16, sb.pack())


def file_blocks_mismatch(store, sb):
    ino = child_ino(store, sb, read_dinode(store, sb, ROOT_INO), "a")
    din = read_dinode(store, sb, ino)
    din.blocks = 99
    write_dinode(store, sb, ino, din)


def garbage_dirblock(store, sb):
    d_ino = child_ino(store, sb, read_dinode(store, sb, ROOT_INO), "d")
    d = read_dinode(store, sb, d_ino)
    store.write(_sectors(sb, d.direct[0])[0], b"\xff" * 512)


def compound(store, sb):
    root = read_dinode(store, sb, ROOT_INO)
    root.nlink = 5
    write_dinode(store, sb, ROOT_INO, root)
    orphan_inode(store, sb)
    sb.cs_nifree -= 4
    store.write(16, sb.pack())


def unknown_mode(store, sb):
    write_dinode(store, sb, sb.ipg + 9, Dinode(mode=0o010644, nlink=1))


def directory_as_file(store, sb):
    """A directory's mode flipped to IFREG: its subtree is orphaned."""
    d_ino = child_ino(store, sb, read_dinode(store, sb, ROOT_INO), "d")
    d = read_dinode(store, sb, d_ino)
    d.mode = (d.mode & ~IFDIR) | IFREG
    write_dinode(store, sb, d_ino, d)


def zeroed_group_header(store, sb):
    sector, nsectors = _sectors(sb, sb.cg_header_frag(1))
    store.write(sector, bytes(nsectors * 512))


def metadata_map_bits(store, sb):
    """Map bits over the group's own header and inode blocks belong to no
    data block: fsck neither reports nor rewrites them."""
    header = _sectors(sb, sb.cg_header_frag(1))[0]
    _flip(store, header, CG_MAPS, 3)
    _flip(store, header, CG_MAPS + 1, 0)


# -- seeded single-bit flips ------------------------------------------------------
def _flip_case(region: str, seed: int):
    def corrupt(store, sb):
        rng = random.Random(f"{region}:{seed}")
        # Two in three flips land in group 0, where the files are.
        cgx = rng.choice((0, 0, rng.randrange(sb.ncg)))
        header = _sectors(sb, sb.cg_header_frag(cgx))[0]
        data_start = sb.cg_data_frag(cgx) - sb.cgbase(cgx)
        if region == "fragmap":
            # Odd seeds: anywhere in the group (metadata bits included);
            # even seeds: in the data blocks the populated files use.
            bit = (rng.randrange(sb.fpg) if seed % 2
                   else rng.randrange(data_start, data_start + 256))
            _flip(store, header, CG_MAPS + bit // 8, bit % 8)
        elif region == "inodemap":
            bit = rng.randrange(sb.ipg) if seed % 2 else rng.randrange(16)
            _flip(store, header, CG_MAPS + (sb.fpg + 7) // 8 + bit // 8,
                  bit % 8)
        elif region == "cg_counters":
            field = rng.choice(sorted(CG_COUNTERS))
            _flip(store, header, CG_COUNTERS[field], rng.randrange(8))
        else:
            field = rng.choice(sorted(SB_TOTALS))
            _flip(store, 16, SB_TOTALS[field], rng.randrange(8))

    return corrupt


def _cases() -> dict:
    """name -> (image builder, corruption)."""
    cases = {}
    for fn in (wrong_nlink, double_claimed, block_leak,
               bitmap_free_but_claimed, bad_counter_totals,
               entry_to_unallocated, blocks_mismatch, out_of_range_pointer):
        cases[f"fresh:{fn.__name__}"] = (_fresh, fn)
    for fn in (wrong_nlink, orphan_inode, entry_to_unallocated,
               stale_bitmaps_and_counters, file_blocks_mismatch,
               garbage_dirblock, compound, double_claimed, unknown_mode,
               directory_as_file, zeroed_group_header, metadata_map_bits):
        cases[f"populated:{fn.__name__}"] = (
            functools.partial(_populated, 1024), fn)
    for fn in (stale_bitmaps_and_counters, zeroed_group_header, compound):
        cases[f"checksummed:{fn.__name__}"] = (_checksummed, fn)
    for fsize in (1024, 2048):
        for region in ("fragmap", "inodemap", "cg_counters", "sb_totals"):
            for seed in FLIP_SEEDS:
                cases[f"flip:{fsize}:{region}:{seed}"] = (
                    functools.partial(_populated, fsize),
                    _flip_case(region, seed))
    return cases


CASES = _cases()


def observe(name: str) -> dict:
    image, corrupt = CASES[name]
    store = image().clone()
    corrupt(store, _sb(store))
    findings = fsck(store).findings
    repaired = store.clone()
    fsck(repaired, repair=True)
    return {"findings": findings,
            "repaired_digest": repaired.digest(),
            "clean_after_repair": fsck(repaired).clean}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)
    # The flips must actually exercise phase 4, not miss every time.
    hits = [name for name in golden
            if name.startswith("flip:") and golden[name]["findings"]]
    assert len(hits) >= len(CASES) // 3


@pytest.mark.parametrize("name", sorted(CASES))
def test_findings_and_repair_match_the_recorded_checker(name, golden):
    seen = observe(name)
    want = golden[name]
    assert seen["findings"] == want["findings"]
    assert seen["repaired_digest"] == want["repaired_digest"]
    assert seen["clean_after_repair"] == want["clean_after_repair"]


# -- the read budget ---------------------------------------------------------------
def _expected_reads(store, sb) -> int:
    """One read per inode block and group header, per directory block and
    per pointer block, the superblock, and the integrity-region probe."""
    reads = sb.ncg * (sb.inode_blocks_per_group + 1) + 2
    nindir = sb.bsize // 4
    for ino in range(2, sb.ncg * sb.ipg):
        din = read_dinode(store, sb, ino)
        if din.is_dir:
            reads += din.size // sb.bsize
        elif din.is_reg:
            reads += bool(din.indirect) + bool(din.dindirect)
            if din.dindirect:
                block = store.read(*_sectors(sb, din.dindirect))
                reads += sum(1 for child in
                             struct.unpack(f"<{nindir}I", block) if child)
    return reads


@pytest.mark.parametrize("fsize", [1024, 2048])
def test_checker_reads_each_metadata_block_once(fsize, monkeypatch):
    store = _populated(fsize).clone()
    budget = _expected_reads(store, _sb(store))
    calls = []
    real_read = store.read
    monkeypatch.setattr(
        store, "read", lambda *args: calls.append(args) or real_read(*args))
    assert fsck(store).clean
    assert len(calls) <= budget
    assert len(calls) == len(set(calls))  # nothing is read twice


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    lines = [f' {json.dumps(name)}: {json.dumps(observe(name))}'
             for name in sorted(CASES)]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {GOLDEN} ({len(lines)} cases)")
