"""Tests for symbolic links, including the fast-symlink optimization the
paper cites as prior art for data-in-the-inode."""

import pytest

from repro.errors import CorruptionError, FilesystemError, InvalidArgumentError
from repro.ufs import fsck, ufsdump, restore
from repro.kernel import Proc


def test_fast_symlink_stored_in_inode(system, proc):
    def work():
        fd = yield from proc.creat("/real")
        yield from proc.write(fd, b"payload")
        yield from proc.fsync(fd)
        yield from proc.close(fd)
        yield from proc.symlink("/real", "/alias")
        return (yield from proc.readlink("/alias"))

    assert system.run(work()) == "/real"
    vn = system.run(system.mount.namei("/alias", follow=False))
    assert vn.inode.is_symlink
    assert vn.inode.blocks == 0  # no data blocks: target is in the dinode
    assert system.mount.stats["fast_symlinks"] == 1
    system.sync()
    assert fsck(system.store).clean


def test_namei_follows_symlink(system, proc):
    def work():
        fd = yield from proc.creat("/target")
        yield from proc.write(fd, b"followed!")
        yield from proc.fsync(fd)
        yield from proc.close(fd)
        yield from proc.symlink("/target", "/link")
        fd = yield from proc.open("/link")
        return (yield from proc.read(fd, 100))

    assert system.run(work()) == b"followed!"


def test_symlink_through_directories(system, proc):
    def work():
        yield from proc.mkdir("/real_dir")
        fd = yield from proc.creat("/real_dir/file")
        yield from proc.write(fd, b"deep")
        yield from proc.fsync(fd)
        yield from proc.close(fd)
        yield from proc.symlink("/real_dir", "/shortcut")
        fd = yield from proc.open("/shortcut/file")
        return (yield from proc.read(fd, 10))

    assert system.run(work()) == b"deep"


def test_slow_symlink_uses_data_block(system, proc):
    # Longer than the 55-byte fast capacity (multiple short components).
    target = "/" + "/".join(["dir%02d" % i for i in range(20)])

    def work():
        yield from proc.symlink(target, "/long")
        return (yield from proc.readlink("/long"))

    assert system.run(work()) == target
    vn = system.run(system.mount.namei("/long", follow=False))
    assert vn.inode.blocks > 0
    assert system.mount.stats["slow_symlinks"] == 1
    system.sync()
    assert fsck(system.store).clean


def test_symlink_loop_detected(system, proc):
    def work():
        yield from proc.symlink("/b", "/a")
        yield from proc.symlink("/a", "/b")
        yield from proc.open("/a")

    with pytest.raises(FilesystemError, match="symbolic links"):
        system.run(work())


def test_unlink_symlink_leaves_target(system, proc):
    def work():
        fd = yield from proc.creat("/kept")
        yield from proc.write(fd, b"still here")
        yield from proc.fsync(fd)
        yield from proc.close(fd)
        yield from proc.symlink("/kept", "/gone")
        yield from proc.unlink("/gone")
        fd = yield from proc.open("/kept")
        return (yield from proc.read(fd, 100))

    assert system.run(work()) == b"still here"
    system.sync()
    assert fsck(system.store).clean


def test_unlink_slow_symlink_frees_block(system, proc):
    sb = system.mount.sb
    target = "/" + "/".join(["sub%02d" % i for i in range(18)])

    def work():
        free0 = (sb.cs_nbfree, sb.cs_nffree)
        yield from proc.symlink(target, "/long")
        yield from proc.unlink("/long")
        return free0

    free0 = system.run(work())
    assert (sb.cs_nbfree, sb.cs_nffree) == free0
    system.sync()
    assert fsck(system.store).clean


@pytest.mark.parametrize("target", [
    "/real", "/" + "/".join("dir%02d" % i for i in range(20))],
    ids=["fast", "slow"])
def test_a_non_utf8_link_target_is_euclean(system, proc, target):
    """A link target byte set to 0xff is corruption: ``readlink``, and
    ``open`` through the link, fail EUCLEAN, not with a raw decode error."""
    system.run(proc.symlink(target, "/bad"))
    ip = system.run(system.mount.namei("/bad", follow=False)).inode
    if ip.blocks:  # slow: the target lives in a data block
        meta = system.run(system.mount.metacache.bread(ip.direct[0]))
        meta.data[1] = 0xFF
    else:  # fast: the target is packed into the inode's pointer words
        ip.direct[0] |= 0xFF00
    for call in (proc.readlink, proc.open):
        proc.errno = None
        with pytest.raises(CorruptionError):
            system.run(call("/bad"))
        assert proc.errno == "EUCLEAN"


def test_a_non_utf8_dumped_link_target_fails_restore_euclean(system, proc):
    """A fast link whose target has a 0xff byte dumps (the archive holds
    bytes), and restoring it is corruption, not a raw decode error."""
    from .conftest import make_system

    system.run(proc.symlink("/real", "/bad"))
    ip = system.run(system.mount.namei("/bad", follow=False)).inode
    ip.direct[0] |= 0xFF00
    system.run(system.mount.write_inode(ip, sync=True))
    system.sync()
    archive = ufsdump(system.store)
    assert b"\xff" in archive.find("/bad").content

    target = make_system("A")
    with pytest.raises(CorruptionError, match="dumped link target of /bad"):
        target.run(restore(Proc(target), archive))


def test_symlink_validation(system, proc):
    with pytest.raises(InvalidArgumentError):
        system.run(proc.symlink("relative/target", "/l"))
    with pytest.raises(InvalidArgumentError):
        system.run(proc.symlink("", "/l"))


def test_dump_restore_preserves_symlinks(system, proc):
    from .conftest import make_system

    def work():
        fd = yield from proc.creat("/data")
        yield from proc.write(fd, b"bytes")
        yield from proc.fsync(fd)
        yield from proc.close(fd)
        yield from proc.symlink("/data", "/ln")

    system.run(work())
    system.sync()
    archive = ufsdump(system.store)
    assert archive.find("/ln").kind == "symlink"

    target_system = make_system("D")
    tproc = Proc(target_system)
    target_system.run(restore(tproc, archive))

    def verify():
        fd = yield from tproc.open("/ln")  # follows the restored link
        return (yield from tproc.read(fd, 10))

    assert target_system.run(verify()) == b"bytes"
