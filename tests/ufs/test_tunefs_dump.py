"""Tests for tunefs and dump/restore — the on-disk-contract utilities."""

import pytest

from repro.errors import InvalidArgumentError
from repro.kernel import Proc
from repro.ufs import fsck
from repro.ufs.dump import DumpArchive, DumpEntry, restore, ufsdump
from repro.ufs.mount import UfsMount
from repro.ufs.ondisk import Superblock
from repro.ufs.tunefs import tunefs
from repro.units import KB

from .conftest import make_system


def populate(system, proc):
    tree = {
        "/readme.txt": b"hello world",
        "/docs": None,
        "/docs/a.dat": bytes(range(256)) * 64,  # 16 KB
        "/docs/sub": None,
        "/docs/sub/deep.bin": b"\xde\xad" * 5000,
        "/empty": b"",
    }

    def work():
        for path, content in tree.items():
            if content is None:
                yield from proc.mkdir(path)
            else:
                fd = yield from proc.creat(path)
                if content:
                    yield from proc.write(fd, content)
                yield from proc.fsync(fd)
                yield from proc.close(fd)

    system.run(work())
    system.sync()
    return tree


# -- tunefs ----------------------------------------------------------------

def test_tunefs_upgrades_old_fs_to_clustered():
    """The paper's deployment story: same disk, new tuning, new kernel."""
    system = make_system("D")  # rotdelay 4ms, maxcontig 1
    proc = Proc(system)
    tree = populate(system, proc)

    # "Upgrade": re-tune the (unmounted) disk and remount with the new code.
    sb = tunefs(system.store, rotdelay_ms=0.0, maxcontig=7)
    assert sb.rotdelay_ms == 0.0 and sb.maxcontig == 7

    from repro.core import ClusterTuning

    mount2 = UfsMount(system.engine, system.metrics, system.cpu, system.driver,
                      system.pagecache, tuning=ClusterTuning.new_system())
    proc2 = Proc(system)
    system.run(mount2.activate())
    system.mount = mount2
    # The machine's ``ufs`` counters carry on from the first mount.
    written = mount2.stats["write_ios"]

    def verify_and_extend():
        # Old data is intact...
        vn = yield from mount2.namei("/docs/a.dat")
        assert vn.size == len(tree["/docs/a.dat"])
        fd = yield from proc2.open("/docs/a.dat")
        data = yield from proc2.read(fd, vn.size)
        assert data == tree["/docs/a.dat"]
        # ...and new writes cluster.
        fd = yield from proc2.creat("/new.dat")
        yield from proc2.write(fd, bytes(112 * KB))
        yield from proc2.fsync(fd)

    system.run(verify_and_extend())
    # 112 KB at maxcontig 7 (56 KB clusters) -> 2 write I/Os.
    assert mount2.stats["write_ios"] - written <= 3
    system.run(mount2.sync())
    assert fsck(system.store).clean


def test_tunefs_validation(system):
    with pytest.raises(InvalidArgumentError):
        tunefs(system.store, rotdelay_ms=-1)
    with pytest.raises(InvalidArgumentError):
        tunefs(system.store, maxcontig=0)
    with pytest.raises(InvalidArgumentError):
        tunefs(system.store, minfree_pct=90)


def test_tunefs_only_touches_requested_fields(system):
    before = Superblock.unpack(system.store.read(16, 16))
    tunefs(system.store, minfree_pct=5)
    after = Superblock.unpack(system.store.read(16, 16))
    assert after.minfree == 5
    assert after.maxcontig == before.maxcontig
    assert after.rotdelay_ms == before.rotdelay_ms
    assert after.cs_nbfree == before.cs_nbfree


# -- dump / restore -----------------------------------------------------------

def test_dump_captures_tree(system, proc):
    tree = populate(system, proc)
    archive = ufsdump(system.store)
    assert set(archive.paths()) == set(tree)
    assert archive.find("/readme.txt").content == b"hello world"
    assert archive.find("/docs").kind == "dir"
    assert archive.find("/docs/sub/deep.bin").content == tree["/docs/sub/deep.bin"]
    assert archive.find("/empty").content == b""


def test_dump_sees_holes_as_zeros(system, proc):
    def work():
        fd = yield from proc.creat("/sparse")
        yield from proc.pwrite(fd, b"end", 40 * KB)
        yield from proc.fsync(fd)

    system.run(work())
    system.sync()
    archive = ufsdump(system.store)
    content = archive.find("/sparse").content
    assert content == bytes(40 * KB) + b"end"


def test_dump_restore_round_trip(system, proc):
    populate(system, proc)
    archive = ufsdump(system.store)

    # Restore onto a fresh disk with *different* tuning (the contract:
    # one on-disk format, any tuning).
    target = make_system("A")
    tproc = Proc(target)
    restored = target.run(restore(tproc, archive))
    assert restored == len(archive.entries)
    target.sync()
    assert fsck(target.store).clean
    # Dumping the restored fs yields an identical archive.
    archive2 = ufsdump(target.store)
    assert archive2 == archive


def test_archive_equality_and_validation():
    a = DumpArchive([DumpEntry("/x", "file", b"1")])
    b = DumpArchive([DumpEntry("/x", "file", b"1")])
    c = DumpArchive([DumpEntry("/x", "file", b"2")])
    assert a == b and a != c
    with pytest.raises(ValueError):
        DumpEntry("/x", "socket")
    with pytest.raises(KeyError):
        a.find("/missing")
