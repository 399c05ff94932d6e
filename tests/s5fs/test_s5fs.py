"""Tests for the S5FS baseline: free list, buffer cache, I/O, aging."""

import pytest

from repro.cpu import CostTable, Cpu
from repro.disk import DiskDriver, DiskGeometry, RotationalDisk
from repro.errors import FileExistsError_, FileNotFoundError_, NoSpaceError
from repro.s5fs import S5FileSystem, s5_mkfs
from repro.s5fs.ondisk import S5Superblock
from repro.sim import Engine
from repro.units import KB


def make_fs(clustering=False, cylinders=60, free_cpu=True):
    engine = Engine()
    geom = DiskGeometry.uniform(cylinders=cylinders, heads=2,
                                sectors_per_track=16)
    disk = RotationalDisk(engine, geom)
    cpu = Cpu(engine, CostTable.free() if free_cpu else CostTable())
    driver = DiskDriver(engine, disk, cpu=cpu)
    s5_mkfs(disk.store)
    fs = S5FileSystem(engine, cpu, driver, clustering=clustering)
    return engine, fs


def test_mkfs_superblock_round_trip():
    engine, fs = make_fs()
    sb2 = S5Superblock.unpack(fs.driver.disk.store.read(2, 2))
    assert sb2.fsize == fs.sb.fsize
    assert sb2.tfree > 0


def test_fresh_free_list_is_ascending():
    engine, fs = make_fs()

    def work():
        blocks = []
        for _ in range(120):  # crosses at least two chain batches
            blocks.append((yield from fs.alloc_block()))
        return blocks

    blocks = engine.run_process(work())
    deltas = [b - a for a, b in zip(blocks, blocks[1:])]
    assert all(d == 1 for d in deltas), deltas


def test_free_then_alloc_is_lifo():
    engine, fs = make_fs()

    def work():
        a = yield from fs.alloc_block()
        b = yield from fs.alloc_block()
        yield from fs.free_block(a)
        yield from fs.free_block(b)
        return a, b, (yield from fs.alloc_block())

    a, b, again = engine.run_process(work())
    assert again == b  # last freed pops first


def test_create_write_read_round_trip():
    engine, fs = make_fs()
    payload = bytes(i % 251 for i in range(40 * KB))

    def work():
        ip = yield from fs.create("data")
        yield from fs.write(ip, 0, payload)
        return (yield from fs.read(ip, 0, len(payload)))

    assert engine.run_process(work()) == payload


def test_create_duplicate_rejected():
    engine, fs = make_fs()

    def work():
        yield from fs.create("x")
        yield from fs.create("x")

    with pytest.raises(FileExistsError_):
        engine.run_process(work())


def test_lookup_and_unlink():
    engine, fs = make_fs()

    def work():
        ip = yield from fs.create("gone")
        yield from fs.write(ip, 0, bytes(10 * KB))
        tfree_mid = fs.sb.tfree
        yield from fs.unlink("gone")
        found = yield from fs.lookup("gone")
        return tfree_mid, fs.sb.tfree, found

    tfree_mid, tfree_after, found = engine.run_process(work())
    assert found is None
    assert tfree_after > tfree_mid  # blocks returned


def test_unlink_missing():
    engine, fs = make_fs()
    with pytest.raises(FileNotFoundError_):
        engine.run_process(fs.unlink("ghost"))


def test_indirect_file():
    """Files beyond 10 direct 1 KB blocks use the indirect block."""
    engine, fs = make_fs()
    payload = bytes(i % 199 for i in range(30 * KB))

    def work():
        ip = yield from fs.create("big")
        yield from fs.write(ip, 0, payload)
        assert ip.addrs[10] != 0
        return (yield from fs.read(ip, 0, len(payload)))

    assert engine.run_process(work()) == payload


def test_out_of_space():
    engine, fs = make_fs(cylinders=20)

    def work():
        ip = yield from fs.create("hog")
        while True:
            yield from fs.write(ip, ip.size, bytes(16 * KB))

    with pytest.raises(NoSpaceError):
        engine.run_process(work())


def test_sync_persists_to_disk():
    engine, fs = make_fs()
    payload = b"\x42" * (5 * KB)

    def work():
        ip = yield from fs.create("durable")
        yield from fs.write(ip, 0, payload)
        yield from fs.sync()
        return ip

    ip = engine.run_process(work())
    # Re-mount from the same store and read through a fresh cache.
    fs2 = S5FileSystem(engine, fs.cpu, fs.driver)

    def verify():
        ino = yield from fs2.lookup("durable")
        ip2 = yield from fs2.iget(ino)
        return (yield from fs2.read(ip2, 0, len(payload)))

    assert engine.run_process(verify()) == payload


def test_two_processes_missing_on_one_block_share_one_buffer():
    """Two inodes in one (uncached) inode block, updated by two processes
    at once: one disk read, one buffer, and both delayed writes reach the
    disk.  A cache without an in-flight table reads the block twice and
    silently drops the first writer's update with its orphaned buffer."""
    from repro.s5fs.ondisk import S5Dinode

    engine, fs = make_fs()

    def setup():
        a = yield from fs.create("a")
        b = yield from fs.create("b")
        yield from fs.sync()
        return a, b

    a, b = engine.run_process(setup())
    blk, off_a = fs.sb.inode_location(a.ino)
    assert fs.sb.inode_location(b.ino)[0] == blk
    cold = S5FileSystem(engine, fs.cpu, fs.driver)  # a cold cache
    disk = fs.driver.disk
    disk.stats.reset()
    a.size, b.size = 111, 222
    engine.process(cold.iput(a))
    engine.process(cold.iput(b))
    engine.run()
    reads = disk.stats["reads"]
    engine.run_process(cold.sync())
    block = disk.store.read(blk * 2, 2)
    _, off_b = fs.sb.inode_location(b.ino)
    assert S5Dinode.unpack(block[off_a:off_a + 64]).size == 111
    assert S5Dinode.unpack(block[off_b:off_b + 64]).size == 222
    assert reads == 1


def test_aging_scrambles_free_list():
    """Create/delete churn destroys free-list ordering."""
    import random

    engine, fs = make_fs()
    rng = random.Random(42)

    def churn():
        live = []
        for i in range(60):
            ip = yield from fs.create(f"f{i}")
            yield from fs.write(ip, 0, bytes(rng.randrange(1, 8) * KB))
            live.append(f"f{i}")
            if len(live) > 10:
                victim = live.pop(rng.randrange(len(live)))
                yield from fs.unlink(victim)

    before = fs.free_list_contiguity()
    engine.run_process(churn())
    after = fs.free_list_contiguity()
    assert before == 1.0
    assert after < 0.5, f"free list should be scrambled, contiguity={after}"


def test_clustering_reduces_read_ios():
    engine, fs = make_fs(clustering=True)
    payload = bytes(56 * KB)

    def work():
        ip = yield from fs.create("seq")
        yield from fs.write(ip, 0, payload)
        yield from fs.sync()
        # Purge the cache by reading unrelated blocks.
        for blk in range(fs.sb.data_start + 500, fs.sb.data_start + 600):
            yield from fs.cache.bread(blk)
        fs.driver.disk.stats.reset()
        yield from fs.read(ip, 0, len(payload))
        return fs.driver.disk.stats["reads"]

    reads = engine.run_process(work())
    assert reads <= 3, f"mbread should cluster; saw {reads} read I/Os"


def test_no_clustering_reads_block_at_a_time():
    engine, fs = make_fs(clustering=False)
    payload = bytes(56 * KB)

    def work():
        ip = yield from fs.create("seq")
        yield from fs.write(ip, 0, payload)
        yield from fs.sync()
        for blk in range(fs.sb.data_start + 500, fs.sb.data_start + 600):
            yield from fs.cache.bread(blk)
        fs.driver.disk.stats.reset()
        yield from fs.read(ip, 0, len(payload))
        return fs.driver.disk.stats["reads"]

    reads = engine.run_process(work())
    assert reads >= 50


def test_clustering_useless_on_aged_fs():
    """After aging, mbread finds no contiguity to exploit."""
    import random

    engine, fs = make_fs(clustering=True)
    rng = random.Random(7)

    def churn_then_measure():
        live = []
        for i in range(80):
            ip = yield from fs.create(f"f{i}")
            yield from fs.write(ip, 0, bytes(rng.randrange(1, 6) * KB))
            live.append(f"f{i}")
            if len(live) > 8:
                yield from fs.unlink(live.pop(rng.randrange(len(live))))
        ip = yield from fs.create("victim")
        yield from fs.write(ip, 0, bytes(56 * KB))
        yield from fs.sync()
        for blk in range(fs.sb.data_start + 700, fs.sb.data_start + 780):
            yield from fs.cache.bread(blk)
        fs.driver.disk.stats.reset()
        yield from fs.read(ip, 0, 56 * KB)
        return fs.driver.disk.stats["reads"]

    reads = engine.run_process(churn_then_measure())
    # Fresh fs needs <= 3 I/Os for this read; scrambling forces many more.
    assert reads > 10, f"aged fs should defeat clustering; saw {reads} I/Os"


def test_s5check_clean_after_mkfs():
    from repro.s5fs import s5check

    engine, fs = make_fs()
    report = s5check(fs.driver.disk.store)
    assert report.clean, report.findings
    assert report.free_blocks == fs.sb.tfree


def test_s5check_clean_after_workload():
    from repro.s5fs import s5check

    engine, fs = make_fs()

    def work():
        for i in range(10):
            ip = yield from fs.create(f"f{i}")
            yield from fs.write(ip, 0, bytes((i + 1) * 3 * KB))
        yield from fs.unlink("f3")
        yield from fs.unlink("f7")
        yield from fs.sync()

    engine.run_process(work())
    report = s5check(fs.driver.disk.store)
    assert report.clean, report.findings


def test_s5check_detects_double_claim():
    from repro.s5fs import s5check
    from repro.s5fs.ondisk import S5Dinode
    from repro.ufs.ondisk import IFREG

    engine, fs = make_fs()

    def work():
        ip = yield from fs.create("victim")
        yield from fs.write(ip, 0, bytes(4 * KB))
        yield from fs.sync()
        return ip

    ip = engine.run_process(work())
    # Forge a second inode claiming the victim's first block.
    store = fs.driver.disk.store
    bogus = S5Dinode(mode=IFREG | 0o644, nlink=1,
                     addrs=(ip.addrs[0],) + (0,) * 11, size=1024)
    blk, off = fs.sb.inode_location(40)
    block = bytearray(store.read(blk * 2, 2))
    block[off:off + 64] = bogus.pack()
    store.write(blk * 2, bytes(block))
    report = s5check(store)
    assert any("claimed by inodes" in f for f in report.findings)


def test_s5check_detects_bad_tfree():
    from repro.s5fs import s5check

    engine, fs = make_fs()
    fs.sb.tfree += 3

    def work():
        yield from fs.sync()

    engine.run_process(work())
    report = s5check(fs.driver.disk.store)
    assert any("tfree" in f for f in report.findings)
