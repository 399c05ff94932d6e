"""Tests for the future-work extensions wired through the UFS paths:
UFS_HOLE bmap bypass, data-in-the-inode, random clustering, B_ORDER."""

from repro.kernel import Proc
from repro.units import KB

from .conftest import make_system


def tuned_system(**tuning_changes):
    system = make_system("A")
    # Rebuild with modified tuning.
    from repro.kernel import SystemConfig, System
    from .conftest import small_geometry

    cfg = SystemConfig.config_a().with_(geometry=small_geometry())
    cfg = cfg.with_(tuning=cfg.tuning.with_(**tuning_changes))
    return System.booted(cfg)


def write_file(system, proc, path, data):
    def work():
        fd = yield from proc.creat(path)
        yield from proc.write(fd, data)
        yield from proc.fsync(fd)
        yield from proc.close(fd)

    system.run(work())


def read_file(system, proc, path, count=1 << 20, offset=0):
    def work():
        fd = yield from proc.open(path)
        data = yield from proc.pread(fd, count, offset)
        yield from proc.close(fd)
        return data

    return system.run(work())


# -- UFS_HOLE bypass ----------------------------------------------------------

def test_hole_bypass_skips_bmap_on_cached_reads():
    system = tuned_system(hole_check_bypass=True)
    proc = Proc(system)
    data = bytes(64 * KB)
    write_file(system, proc, "/dense", data)
    read_file(system, proc, "/dense")  # populate the cache
    system.mount.stats.reset()
    read_file(system, proc, "/dense")  # fully cached now
    assert system.mount.stats["bmap_bypassed"] >= 7


def test_hole_bypass_disabled_for_sparse_files():
    system = tuned_system(hole_check_bypass=True)
    proc = Proc(system)

    def work():
        fd = yield from proc.creat("/sparse")
        yield from proc.pwrite(fd, b"end", 64 * KB)
        yield from proc.fsync(fd)
        yield from proc.close(fd)

    system.run(work())
    vn = system.run(system.mount.namei("/sparse"))
    assert vn.inode.maybe_holes
    read_file(system, proc, "/sparse")
    system.mount.stats.reset()
    data = read_file(system, proc, "/sparse")
    assert system.mount.stats["bmap_bypassed"] == 0
    assert data == bytes(64 * KB) + b"end"


def test_holes_flag_recomputed_from_di_blocks_on_load():
    """A remount proves the no-holes check uses only on-disk facts."""
    system = tuned_system(hole_check_bypass=True)
    proc = Proc(system)
    write_file(system, proc, "/dense", bytes(40 * KB))

    def sparse():
        fd = yield from proc.creat("/sparse")
        yield from proc.pwrite(fd, b"x", 64 * KB)
        yield from proc.fsync(fd)

    system.run(sparse())
    system.sync()

    from repro.ufs.mount import UfsMount

    mount2 = UfsMount(system.engine, system.metrics, system.cpu, system.driver,
                      system.pagecache, tuning=system.config.tuning)

    def reload():
        yield from mount2.activate()
        dense = yield from mount2.namei("/dense")
        sparse_vn = yield from mount2.namei("/sparse")
        return dense.inode.maybe_holes, sparse_vn.inode.maybe_holes

    dense_holes, sparse_holes = system.run(reload())
    assert dense_holes is False
    assert sparse_holes is True


# -- data in the inode -----------------------------------------------------------

def test_inline_cache_serves_small_file_reads():
    system = tuned_system(inode_data_cache=True)
    proc = Proc(system)
    data = b"config file contents\n" * 30  # 630 bytes
    write_file(system, proc, "/etc.conf", data)
    assert read_file(system, proc, "/etc.conf") == data  # populates
    system.mount.stats.reset()
    for _ in range(5):
        assert read_file(system, proc, "/etc.conf") == data
    assert system.mount.stats["inline_reads"] == 5


def test_inline_cache_partial_reads_served(offset=100):
    system = tuned_system(inode_data_cache=True)
    proc = Proc(system)
    data = bytes(range(250)) * 8  # 2000 bytes
    write_file(system, proc, "/f", data)
    read_file(system, proc, "/f")  # populate
    got = read_file(system, proc, "/f", count=50, offset=offset)
    assert got == data[offset:offset + 50]


def test_inline_cache_invalidated_by_write():
    system = tuned_system(inode_data_cache=True)
    proc = Proc(system)
    write_file(system, proc, "/f", b"old contents")
    read_file(system, proc, "/f")  # populate

    def overwrite():
        fd = yield from proc.open("/f")
        yield from proc.pwrite(fd, b"NEW", 0)
        yield from proc.close(fd)

    system.run(overwrite())
    vn = system.run(system.mount.namei("/f"))
    assert vn.inode.inline_data is None
    assert read_file(system, proc, "/f") == b"NEW contents"


def test_inline_cache_skips_big_files():
    system = tuned_system(inode_data_cache=True)
    proc = Proc(system)
    data = bytes(5 * KB)  # over the 2 KB inline limit
    write_file(system, proc, "/big", data)
    read_file(system, proc, "/big")
    vn = system.run(system.mount.namei("/big"))
    assert vn.inode.inline_data is None
    system.mount.stats.reset()
    read_file(system, proc, "/big")
    assert system.mount.stats["inline_reads"] == 0


def test_inline_cache_off_by_default(system):
    proc = Proc(system)
    write_file(system, proc, "/f", b"tiny")
    read_file(system, proc, "/f")
    vn = system.run(system.mount.namei("/f"))
    assert vn.inode.inline_data is None
