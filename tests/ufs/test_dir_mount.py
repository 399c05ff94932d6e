"""Tests for directories, namei, and mount-level file operations."""

import pytest

from repro.errors import (
    DirectoryNotEmptyError, FileExistsError_, FileNotFoundError_,
    IsADirectoryError_, NotADirectoryError_,
)
from repro.ufs import fsck


def test_create_and_lookup(system, proc):
    def work():
        fd = yield from proc.creat("/hello.txt")
        yield from proc.close(fd)
        return (yield from proc.stat_size("/hello.txt"))

    assert system.run(work()) == 0


def test_create_existing_rejected(system):
    def work():
        yield from system.mount.create("/f")
        yield from system.mount.create("/f")

    with pytest.raises(FileExistsError_):
        system.run(work())


def test_namei_missing_raises(system):
    with pytest.raises(FileNotFoundError_):
        system.run(system.mount.namei("/nope"))


def test_namei_through_subdirectories(system, proc):
    def work():
        yield from proc.mkdir("/a")
        yield from proc.mkdir("/a/b")
        fd = yield from proc.creat("/a/b/c.txt")
        yield from proc.write(fd, b"data")
        yield from proc.close(fd)
        return (yield from proc.stat_size("/a/b/c.txt"))

    assert system.run(work()) == 4


def test_lookup_through_file_rejected(system, proc):
    def work():
        fd = yield from proc.creat("/plain")
        yield from proc.close(fd)
        yield from proc.stat_size("/plain/sub")

    with pytest.raises(NotADirectoryError_):
        system.run(work())


def test_readdir_lists_entries(system, proc):
    def work():
        for name in ("x", "y", "z"):
            fd = yield from proc.creat(f"/{name}")
            yield from proc.close(fd)
        return (yield from proc.readdir("/"))

    entries = dict(system.run(work()))
    assert {"x", "y", "z", ".", ".."} <= set(entries)
    assert entries["."] == entries[".."] == 2


def test_unlink_removes_and_frees(system, proc):
    sb = system.mount.sb
    free_before = (sb.cs_nbfree, sb.cs_nffree, sb.cs_nifree)

    def work():
        fd = yield from proc.creat("/victim")
        yield from proc.write(fd, bytes(64 * 1024))
        yield from proc.fsync(fd)
        yield from proc.close(fd)
        yield from proc.unlink("/victim")

    system.run(work())
    assert (sb.cs_nbfree, sb.cs_nffree, sb.cs_nifree) == free_before
    with pytest.raises(FileNotFoundError_):
        system.run(system.mount.namei("/victim"))


def test_unlink_missing(system, proc):
    with pytest.raises(FileNotFoundError_):
        system.run(proc.unlink("/ghost"))


def test_unlink_directory_rejected(system, proc):
    def work():
        yield from proc.mkdir("/d")
        yield from proc.unlink("/d")

    with pytest.raises(IsADirectoryError_):
        system.run(work())


def test_mkdir_rmdir_link_counts(system, proc):
    root = system.mount.root.inode

    def work():
        yield from proc.mkdir("/sub")

    system.run(work())
    assert root.nlink == 3  # '.', '..', and /sub's '..'
    sub = system.run(system.mount.namei("/sub"))
    assert sub.inode.nlink == 2

    system.run(proc.rmdir("/sub"))
    assert root.nlink == 2


def test_mkdir_after_rmdir_reuses_the_freed_block(system, proc):
    """rmdir frees the directory's block; the next mkdir is handed the same
    block and installs a fresh buffer for it, which the buffer cache
    refused while the dead directory's buffer was still cached."""
    def work():
        yield from proc.mkdir("/sub")
        yield from proc.rmdir("/sub")
        yield from proc.mkdir("/sub")
        return (yield from proc.readdir("/sub"))

    assert [name for name, _ in system.run(work())] == [".", ".."]
    system.sync()
    assert fsck(system.store).clean


def test_rmdir_nonempty_rejected(system, proc):
    def work():
        yield from proc.mkdir("/d")
        fd = yield from proc.creat("/d/file")
        yield from proc.close(fd)
        yield from proc.rmdir("/d")

    with pytest.raises(DirectoryNotEmptyError):
        system.run(work())


def test_many_entries_grow_directory(system, proc):
    """Enough entries to overflow the first block."""
    n = 600  # ~16 bytes each -> > 8 KB with DIRBLKSIZ slack

    def work():
        for i in range(n):
            fd = yield from proc.creat(f"/f{i:04d}")
            yield from proc.close(fd)
        return (yield from proc.readdir("/"))

    entries = system.run(work())
    assert len(entries) == n + 2
    root = system.mount.root.inode
    assert root.size > system.mount.sb.bsize


def test_deleted_slot_is_reused(system, proc):
    def work():
        for name in ("/a", "/b", "/c"):
            fd = yield from proc.creat(name)
            yield from proc.close(fd)
        yield from proc.unlink("/b")
        fd = yield from proc.creat("/b2")
        yield from proc.close(fd)
        return (yield from proc.readdir("/"))

    entries = [name for name, _ in system.run(work())]
    assert "b" not in entries and "b2" in entries
    # The directory did not grow past one block.
    assert system.mount.root.inode.size == system.mount.sb.bsize


def test_everything_fsck_clean_after_tree_building(system, proc):
    def work():
        yield from proc.mkdir("/dir1")
        yield from proc.mkdir("/dir1/nested")
        for i in range(10):
            fd = yield from proc.creat(f"/dir1/f{i}")
            yield from proc.write(fd, bytes((i + 1) * 3000))
            yield from proc.fsync(fd)
            yield from proc.close(fd)
        yield from proc.unlink("/dir1/f3")
        yield from proc.rmdir("/dir1/nested")

    system.run(work())
    system.sync()
    report = fsck(system.store)
    assert report.clean, str(report)


def test_sync_persists_across_remount(system, proc):
    """A second mount of the same store sees everything."""
    def work():
        fd = yield from proc.creat("/persist")
        yield from proc.write(fd, b"x" * 30000)
        yield from proc.close(fd)

    system.run(work())
    system.sync()

    from repro.ufs.mount import UfsMount

    mount2 = UfsMount(system.engine, system.metrics, system.cpu, system.driver,
                      system.pagecache, tuning=system.config.tuning)

    def verify():
        yield from mount2.activate()
        vn = yield from mount2.namei("/persist")
        return vn.size

    # Invalidate page cache identity clash: same vnode ids differ, fine.
    assert system.run(verify()) == 30000


def test_hard_links(system, proc):
    def work():
        fd = yield from proc.creat("/orig")
        yield from proc.write(fd, b"shared bytes")
        yield from proc.fsync(fd)
        yield from proc.close(fd)
        yield from proc.link("/orig", "/alias")
        fd = yield from proc.open("/alias")
        data = yield from proc.read(fd, 100)
        yield from proc.close(fd)
        return data

    assert system.run(work()) == b"shared bytes"
    orig = system.run(system.mount.namei("/orig"))
    alias = system.run(system.mount.namei("/alias"))
    assert orig.inode is alias.inode
    assert orig.inode.nlink == 2
    system.sync()
    assert fsck(system.store).clean


def test_unlink_one_of_two_links_keeps_data(system, proc):
    def work():
        fd = yield from proc.creat("/orig")
        yield from proc.write(fd, b"survives")
        yield from proc.fsync(fd)
        yield from proc.close(fd)
        yield from proc.link("/orig", "/alias")
        yield from proc.unlink("/orig")
        fd = yield from proc.open("/alias")
        return (yield from proc.read(fd, 100))

    assert system.run(work()) == b"survives"
    alias = system.run(system.mount.namei("/alias"))
    assert alias.inode.nlink == 1
    system.sync()
    assert fsck(system.store).clean


def test_link_validation(system, proc):
    from repro.errors import IsADirectoryError_

    def dirlink():
        yield from proc.mkdir("/d")
        yield from proc.link("/d", "/d2")

    with pytest.raises(IsADirectoryError_):
        system.run(dirlink())

    def clash():
        fd = yield from proc.creat("/a")
        yield from proc.close(fd)
        fd = yield from proc.creat("/b")
        yield from proc.close(fd)
        yield from proc.link("/a", "/b")

    from repro.errors import FileExistsError_

    with pytest.raises(FileExistsError_):
        system.run(clash())
