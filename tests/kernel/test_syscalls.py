"""Tests for the syscall layer and system wiring."""

import pytest

from repro.disk import DiskGeometry
from repro.errors import (
    BadFileError, FileNotFoundError_, InvalidArgumentError, IsADirectoryError_,
)
from repro.kernel import Proc, SEEK_CUR, SEEK_END, SEEK_SET, System, SystemConfig
from repro.kernel.program import run
from repro.sim import Event
from repro.units import KB


@pytest.fixture
def system():
    cfg = SystemConfig.config_a().with_(
        geometry=DiskGeometry.uniform(cylinders=200, heads=4,
                                      sectors_per_track=32))
    return System.booted(cfg)


@pytest.fixture
def proc(system):
    return Proc(system)


def test_open_missing_without_create(system, proc):
    with pytest.raises(FileNotFoundError_):
        system.run(proc.open("/nope"))


def test_open_create_then_reopen(system, proc):
    def work():
        fd = yield from proc.open("/f", create=True)
        yield from proc.close(fd)
        fd2 = yield from proc.open("/f")
        return fd, fd2

    fd, fd2 = system.run(work())
    assert fd != fd2


def test_fd_lifecycle(system, proc):
    def work():
        fd = yield from proc.creat("/f")
        yield from proc.close(fd)
        yield from proc.read(fd, 10)

    with pytest.raises(BadFileError):
        system.run(work())


def test_sequential_offset_tracking(system, proc):
    def work():
        fd = yield from proc.creat("/f")
        yield from proc.write(fd, b"abc")
        yield from proc.write(fd, b"def")
        yield from proc.lseek(fd, 0)
        return (yield from proc.read(fd, 6))

    assert system.run(work()) == b"abcdef"


def test_lseek_whences(system, proc):
    def work():
        fd = yield from proc.creat("/f")
        yield from proc.write(fd, bytes(100))
        a = yield from proc.lseek(fd, 10, SEEK_SET)
        b = yield from proc.lseek(fd, 5, SEEK_CUR)
        c = yield from proc.lseek(fd, -20, SEEK_END)
        return a, b, c

    assert system.run(work()) == (10, 15, 80)


def test_lseek_validation(system, proc):
    def work():
        fd = yield from proc.creat("/f")
        yield from proc.lseek(fd, -1, SEEK_SET)

    with pytest.raises(InvalidArgumentError):
        system.run(work())

    def work2():
        fd = yield from proc.creat("/g")
        yield from proc.lseek(fd, 0, 99)

    with pytest.raises(InvalidArgumentError):
        system.run(work2())


def test_mmap_read_touches_pages(system, proc):
    def work():
        fd = yield from proc.creat("/f")
        yield from proc.write(fd, bytes(64 * KB))
        yield from proc.fsync(fd)
        touched = yield from proc.mmap_read(fd, 0, 64 * KB)
        return touched

    assert system.run(work()) == 8  # 64 KB / 8 KB pages


def test_mmap_read_requires_alignment(system, proc):
    def work():
        fd = yield from proc.creat("/f")
        yield from proc.write(fd, bytes(16 * KB))
        yield from proc.mmap_read(fd, 100, 8 * KB)

    with pytest.raises(InvalidArgumentError):
        system.run(work())


def test_syscalls_charge_cpu(system, proc):
    def work():
        fd = yield from proc.creat("/f")
        yield from proc.write(fd, b"x")
        yield from proc.close(fd)

    system.run(work())
    assert system.cpu.ledger["syscall"] > 0


def test_two_procs_share_the_filesystem(system):
    a, b = Proc(system, "a"), Proc(system, "b")

    def writer():
        fd = yield from a.creat("/shared")
        yield from a.write(fd, b"hello from a")
        yield from a.fsync(fd)
        yield from a.close(fd)

    system.run(writer())

    def reader():
        fd = yield from b.open("/shared")
        data = yield from b.read(fd, 100)
        yield from b.close(fd)
        return data

    assert system.run(reader()) == b"hello from a"


def test_system_config_presets():
    for name in "ABCD":
        cfg = SystemConfig.by_name(name)
        assert cfg.name == name
    with pytest.raises(ValueError):
        SystemConfig.by_name("Z")


def test_booted_system_has_everything():
    cfg = SystemConfig.config_b().with_(
        geometry=DiskGeometry.uniform(cylinders=100, heads=2,
                                      sectors_per_track=32))
    system = System.booted(cfg)
    assert system.mount is not None
    assert system.mount.root.inode.is_dir
    assert system.pagecache.total_pages > 0
    assert system.raw_disk.size == cfg.geometry.capacity_bytes


def test_run_all_detects_deadlock(system):
    def stuck():
        yield Event(system.engine)  # never fires

    with pytest.raises(RuntimeError, match="deadlock"):
        system.run_all([stuck()])


def test_stat_size(system, proc):
    def work():
        fd = yield from proc.creat("/sized")
        yield from proc.write(fd, bytes(12345))
        yield from proc.close(fd)
        return (yield from proc.stat_size("/sized"))

    assert system.run(work()) == 12345


def test_creat_empties_a_file_and_frees_its_blocks(system, proc):
    free = system.mount.statfs().f_bfree

    def work():
        fd = yield from proc.creat("/f")
        yield from proc.write(fd, bytes(100 * KB))
        yield from proc.close(fd)
        fd = yield from proc.creat("/f")
        return (yield from proc.lseek(fd, 0, SEEK_END))

    assert system.run(work()) == 0
    assert system.mount.statfs().f_bfree == free
    assert system.run(system.mount.namei("/f")).inode.blocks == 0


def test_creat_truncates_only_a_file_holding_bytes(system, proc,
                                                   monkeypatch):
    """A file ``creat`` makes, or finds empty, is never truncated."""
    system.run(proc.creat("/empty"))

    def refuse(vnode):
        raise AssertionError("truncated an empty file")
        yield

    monkeypatch.setattr(type(system.mount.root), "truncate", refuse)
    system.run(proc.creat("/new"))
    system.run(proc.creat("/empty"))


def test_creat_of_a_directory_is_eisdir(system, proc):
    with pytest.raises(IsADirectoryError_):
        system.run(proc.creat("/"))
    assert proc.errno == "EISDIR"
    assert proc._files == {}  # the fd open handed out is taken back


def test_errno_mirrors_last_failure(system, proc):
    assert proc.errno is None
    with pytest.raises(FileNotFoundError_):
        system.run(proc.open("/nope"))
    assert proc.errno == "ENOENT"

    def closed_read():
        fd = yield from proc.creat("/f")
        yield from proc.close(fd)
        yield from proc.read(fd, 10)

    with pytest.raises(BadFileError):
        system.run(closed_read())
    assert proc.errno == "EBADF"
    # Like the C library: success does not clear errno.
    system.run(proc.stat_size("/f"))
    assert proc.errno == "EBADF"


def test_a_program_runs_each_op_on_the_fd_its_path_last_opened(system, proc):
    """``run`` hands an fd op the fd its path last opened and returns each
    op's result; ``writeback`` pushes a file's dirty pages, no fsync."""
    results = system.run(run(proc, (
        ("creat", "/a"), ("creat", "/b"), ("write", "/a", b"aa"),
        ("write", "/b", b"bbb"), ("writeback", "/b"),
        ("pread", "/a", 10, 0), ("close", "/a"), ("close", "/b"))))
    assert results == [3, 4, 2, 3, None, b"aa", None, None]
    dirty = {path: any(page.dirty for page in system.pagecache.vnode_pages(
        system.run(system.mount.namei(path)))) for path in ("/a", "/b")}
    assert dirty == {"/a": True, "/b": False}


def test_a_program_stops_at_its_first_error(system, proc):
    with pytest.raises(FileNotFoundError_):
        system.run(run(proc, (("open", "/nope"), ("creat", "/never"))))
    assert proc.errno == "ENOENT"
    with pytest.raises(FileNotFoundError_):
        system.run(proc.open("/never"))


def _write_then_evict(system, proc, path, nbytes):
    def work():
        fd = yield from proc.creat(path)
        yield from proc.write(fd, b"\x5a" * nbytes)
        yield from proc.fsync(fd)
        yield from proc.close(fd)

    system.run(work())
    vn = system.run(system.mount.namei(path))
    for page in system.pagecache.vnode_pages(vn):
        if not page.locked and not page.dirty:
            system.pagecache.destroy(page)
    vn.inode.readahead.reset()


def test_disk_error_surfaces_as_eio(system, proc):
    from repro.errors import DiskError
    from repro.faults import FaultPlan

    _write_then_evict(system, proc, "/f", 8 * KB)
    # Every media access now fails; retries exhaust and EIO surfaces.
    system.disk.fault_plan = FaultPlan(read_transient_p=1.0)

    def work():
        fd = yield from proc.open("/f")
        yield from proc.read(fd, 8 * KB)

    with pytest.raises(DiskError):
        system.run(work())
    assert proc.errno == "EIO"


def test_read_returns_partial_data_before_an_error(system, proc):
    from repro.faults import FaultPlan

    def work():
        fd = yield from proc.creat("/f")
        yield from proc.write(fd, b"\x5a" * (16 * KB))
        yield from proc.fsync(fd)
        yield from proc.close(fd)

    system.run(work())
    # Page 0 stays cached; page 1 must come from the now-broken disk.
    vn = system.run(system.mount.namei("/f"))
    for page in system.pagecache.vnode_pages(vn):
        if page.offset >= 8 * KB and not page.locked and not page.dirty:
            system.pagecache.destroy(page)
    vn.inode.readahead.reset()
    system.disk.fault_plan = FaultPlan(read_transient_p=1.0)

    def work():
        fd = yield from proc.open("/f")
        return (yield from proc.read(fd, 16 * KB))

    # POSIX short read: the bytes before the failure are returned; the
    # *next* read at the failed offset would raise.
    assert system.run(work()) == b"\x5a" * (8 * KB)
