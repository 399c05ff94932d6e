"""Tests for the S5FS baseline: free list, buffer cache, I/O, aging."""

import pytest

from repro.cpu import CostTable
from repro.disk import DiskGeometry
from repro.errors import (
    CorruptionError, FileExistsError_, FileNotFoundError_,
    InvalidArgumentError, NoSpaceError,
)
from repro.kernel import Proc, System, SystemConfig
from repro.s5fs import S5FileSystem, s5_mkfs, s5check
from repro.s5fs.ondisk import (
    S5_DIRENT_SIZE, S5_DIRSIZ, S5Dinode, S5Superblock,
)
from repro.ufs.ondisk import IFREG
from repro.units import KB
from repro.vfs import RW


def make_fs(clustering=False, cylinders=60, free_cpu=True):
    """An S5FS on a machine built with no UFS: no mkfs, no mount."""
    system = System(SystemConfig.config_a().with_(
        geometry=DiskGeometry.uniform(cylinders=cylinders, heads=2,
                                      sectors_per_track=16),
        costs=CostTable.free() if free_cpu else CostTable()))
    s5_mkfs(system.store)
    return system, S5FileSystem(system, clustering=clustering)


def test_mkfs_superblock_round_trip():
    system, fs = make_fs()
    sb2 = S5Superblock.unpack(system.store.read(2, 2))
    assert sb2.fsize == fs.sb.fsize
    assert sb2.tfree > 0


def test_fresh_free_list_is_ascending():
    system, fs = make_fs()

    def work():
        blocks = []
        for _ in range(120):  # crosses at least two chain batches
            blocks.append((yield from fs.alloc_block()))
        return blocks

    blocks = system.run(work())
    deltas = [b - a for a, b in zip(blocks, blocks[1:])]
    assert all(d == 1 for d in deltas), deltas


def test_free_then_alloc_is_lifo():
    system, fs = make_fs()

    def work():
        a = yield from fs.alloc_block()
        b = yield from fs.alloc_block()
        yield from fs.free_block(a)
        yield from fs.free_block(b)
        return a, b, (yield from fs.alloc_block())

    a, b, again = system.run(work())
    assert again == b  # last freed pops first


def test_create_write_read_round_trip():
    system, fs = make_fs()
    payload = bytes(i % 251 for i in range(40 * KB))

    def work():
        ip = yield from fs.create("/data")
        yield from ip.rdwr(RW.WRITE, 0, payload)
        return (yield from ip.rdwr(RW.READ, 0, len(payload)))

    assert system.run(work()) == payload


def test_create_duplicate_rejected():
    system, fs = make_fs()

    def work():
        yield from fs.create("/x")
        yield from fs.create("/x")

    with pytest.raises(FileExistsError_):
        system.run(work())


def test_lookup_and_unlink():
    system, fs = make_fs()

    def work():
        ip = yield from fs.create("/gone")
        yield from ip.rdwr(RW.WRITE, 0, bytes(10 * KB))
        tfree_mid = fs.sb.tfree
        yield from fs.unlink("/gone")
        return tfree_mid, fs.sb.tfree

    tfree_mid, tfree_after = system.run(work())
    assert tfree_after > tfree_mid  # blocks returned
    with pytest.raises(FileNotFoundError_):
        system.run(fs.namei("/gone"))


def test_unlink_missing():
    system, fs = make_fs()
    with pytest.raises(FileNotFoundError_):
        system.run(fs.unlink("/ghost"))


def test_indirect_file():
    """Files beyond 10 direct 1 KB blocks use the indirect block."""
    system, fs = make_fs()
    payload = bytes(i % 199 for i in range(30 * KB))

    def work():
        ip = yield from fs.create("/big")
        yield from ip.rdwr(RW.WRITE, 0, payload)
        assert ip.addrs[10] != 0
        return (yield from ip.rdwr(RW.READ, 0, len(payload)))

    assert system.run(work()) == payload


def test_out_of_space():
    system, fs = make_fs(cylinders=20)

    def work():
        ip = yield from fs.create("/hog")
        while True:
            yield from ip.rdwr(RW.WRITE, ip.size, bytes(16 * KB))

    with pytest.raises(NoSpaceError):
        system.run(work())


def test_sync_persists_to_disk():
    system, fs = make_fs()
    payload = b"\x42" * (5 * KB)

    def work():
        ip = yield from fs.create("/durable")
        yield from ip.rdwr(RW.WRITE, 0, payload)
        yield from fs.sync()
        return ip

    system.run(work())
    # Re-mount from the same store and read through a fresh cache.
    proc = Proc(system, mount=S5FileSystem(system))

    def verify():
        fd = yield from proc.open("/durable")
        return (yield from proc.read(fd, len(payload)))

    assert system.run(verify()) == payload


def test_two_processes_missing_on_one_block_share_one_buffer():
    """Two inodes in one (uncached) inode block, updated by two processes
    at once: one disk read, one buffer, and both delayed writes reach the
    disk.  A cache without an in-flight table reads the block twice and
    silently drops the first writer's update with its orphaned buffer."""
    system, fs = make_fs()

    def setup():
        a = yield from fs.create("/a")
        b = yield from fs.create("/b")
        yield from fs.sync()
        return a, b

    a, b = system.run(setup())
    blk, off_a = fs.sb.inode_location(a.ino)
    assert fs.sb.inode_location(b.ino)[0] == blk
    cold = S5FileSystem(system)  # a cold cache
    disk = system.disk
    disk.stats.reset()
    a.size, b.size = 111, 222
    system.run_all([cold.iput(a), cold.iput(b)])
    reads = disk.stats["reads"]
    system.run(cold.sync())
    block = disk.store.read(blk * 2, 2)
    _, off_b = fs.sb.inode_location(b.ino)
    assert S5Dinode.unpack(block[off_a:off_a + 64]).size == 111
    assert S5Dinode.unpack(block[off_b:off_b + 64]).size == 222
    assert reads == 1


def test_aging_scrambles_free_list():
    """Create/delete churn destroys free-list ordering."""
    import random

    system, fs = make_fs()
    rng = random.Random(42)

    def churn():
        live = []
        for i in range(60):
            ip = yield from fs.create(f"/f{i}")
            yield from ip.rdwr(RW.WRITE, 0, bytes(rng.randrange(1, 8) * KB))
            live.append(f"/f{i}")
            if len(live) > 10:
                victim = live.pop(rng.randrange(len(live)))
                yield from fs.unlink(victim)

    before = fs.free_list_contiguity()
    system.run(churn())
    after = fs.free_list_contiguity()
    assert before == 1.0
    assert after < 0.5, f"free list should be scrambled, contiguity={after}"


def test_clustering_reduces_read_ios():
    system, fs = make_fs(clustering=True)
    payload = bytes(56 * KB)

    def work():
        ip = yield from fs.create("/seq")
        yield from ip.rdwr(RW.WRITE, 0, payload)
        yield from fs.sync()
        # Purge the cache by reading unrelated blocks.
        for blk in range(fs.sb.data_start + 500, fs.sb.data_start + 600):
            yield from fs.cache.bread(blk)
        system.disk.stats.reset()
        yield from ip.rdwr(RW.READ, 0, len(payload))
        return system.disk.stats["reads"]

    reads = system.run(work())
    assert reads <= 3, f"mbread should cluster; saw {reads} read I/Os"


def test_no_clustering_reads_block_at_a_time():
    system, fs = make_fs(clustering=False)
    payload = bytes(56 * KB)

    def work():
        ip = yield from fs.create("/seq")
        yield from ip.rdwr(RW.WRITE, 0, payload)
        yield from fs.sync()
        for blk in range(fs.sb.data_start + 500, fs.sb.data_start + 600):
            yield from fs.cache.bread(blk)
        system.disk.stats.reset()
        yield from ip.rdwr(RW.READ, 0, len(payload))
        return system.disk.stats["reads"]

    reads = system.run(work())
    assert reads >= 50


def test_clustering_useless_on_aged_fs():
    """After aging, mbread finds no contiguity to exploit."""
    import random

    system, fs = make_fs(clustering=True)
    rng = random.Random(7)

    def churn_then_measure():
        live = []
        for i in range(80):
            ip = yield from fs.create(f"/f{i}")
            yield from ip.rdwr(RW.WRITE, 0, bytes(rng.randrange(1, 6) * KB))
            live.append(f"/f{i}")
            if len(live) > 8:
                yield from fs.unlink(live.pop(rng.randrange(len(live))))
        ip = yield from fs.create("/victim")
        yield from ip.rdwr(RW.WRITE, 0, bytes(56 * KB))
        yield from fs.sync()
        for blk in range(fs.sb.data_start + 700, fs.sb.data_start + 780):
            yield from fs.cache.bread(blk)
        system.disk.stats.reset()
        yield from ip.rdwr(RW.READ, 0, 56 * KB)
        return system.disk.stats["reads"]

    reads = system.run(churn_then_measure())
    # Fresh fs needs <= 3 I/Os for this read; scrambling forces many more.
    assert reads > 10, f"aged fs should defeat clustering; saw {reads} I/Os"


def test_s5check_clean_after_mkfs():
    system, fs = make_fs()
    report = s5check(system.store)
    assert report.clean, report.findings
    assert report.free_blocks == fs.sb.tfree


def test_s5check_clean_after_workload():
    system, fs = make_fs()

    def work():
        for i in range(10):
            ip = yield from fs.create(f"/f{i}")
            yield from ip.rdwr(RW.WRITE, 0, bytes((i + 1) * 3 * KB))
        yield from fs.unlink("/f3")
        yield from fs.unlink("/f7")
        yield from fs.sync()

    system.run(work())
    report = s5check(system.store)
    assert report.clean, report.findings


def test_s5check_detects_double_claim():
    system, fs = make_fs()

    def work():
        ip = yield from fs.create("/victim")
        yield from ip.rdwr(RW.WRITE, 0, bytes(4 * KB))
        yield from fs.sync()
        return ip

    ip = system.run(work())
    # Forge a second inode claiming the victim's first block.
    store = system.store
    bogus = S5Dinode(mode=IFREG | 0o644, nlink=1,
                     addrs=(ip.addrs[0],) + (0,) * 11, size=1024)
    blk, off = fs.sb.inode_location(40)
    block = bytearray(store.read(blk * 2, 2))
    block[off:off + 64] = bogus.pack()
    store.write(blk * 2, bytes(block))
    report = s5check(store)
    assert any("claimed by inodes" in f for f in report.findings)


def test_s5check_detects_bad_tfree():
    system, fs = make_fs()
    fs.sb.tfree += 3

    def work():
        yield from fs.sync()

    system.run(work())
    report = s5check(system.store)
    assert any("tfree" in f for f in report.findings)


@pytest.mark.parametrize("path", ["/" + "x" * 15, "/a/b"])
def test_a_bad_name_is_einval_and_allocates_no_inode(path):
    """The root is flat and an entry holds 1-14 bytes: a bad name fails
    before anything is allocated (it used to leak an inode no entry
    names, which s5check called clean)."""
    system, fs = make_fs()
    proc = Proc(system, mount=fs)
    with pytest.raises(InvalidArgumentError):
        system.run(proc.creat(path))
    assert proc.errno == "EINVAL"
    with pytest.raises(InvalidArgumentError):
        system.run(fs.create("/"))  # the empty name
    system.run(fs.sync())
    report = s5check(system.store)
    assert report.clean, report.findings
    assert report.inodes_checked == 1  # the root alone


def test_s5check_reports_an_inode_no_entry_names():
    system, fs = make_fs()
    blk, off = fs.sb.inode_location(7)
    block = bytearray(system.store.read(blk * 2, 2))
    block[off:off + 64] = S5Dinode(mode=IFREG | 0o644, nlink=1).pack()
    system.store.write(blk * 2, bytes(block))
    assert s5check(system.store).findings == [
        "inode 7 is allocated but no entry names it"]


def test_a_non_utf8_name_is_euclean():
    """A live entry's name byte set to 0xff is corruption: ``open`` fails
    EUCLEAN, not with a raw decode error."""
    system, fs = make_fs()
    proc = Proc(system, mount=fs)
    system.run(fs.create("/abc"))
    buf, off, _ino = system.run(fs._find("abc"))
    buf.data[off + S5_DIRENT_SIZE - S5_DIRSIZ] = 0xFF
    with pytest.raises(CorruptionError):
        system.run(proc.open("/abc"))
    assert proc.errno == "EUCLEAN"
