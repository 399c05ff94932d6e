"""One program, three file systems: the same ``Proc(system)`` program
(ops run one by one through ``repro.kernel.program.step``) on a config-A UFS
machine, on a config-A machine mounting S5FS and on an NFS client must
return the same bytes and the same errnos — each is the machine's
``system.mount``.  The seed of a ``{ufs, s5fs, nfs}`` model."""

import pytest

from repro.bench.agefs import measure_extents
from repro.errors import InvalidArgumentError, ReproError
from repro.kernel import Proc, System, SystemConfig
from repro.kernel.program import run, step
from repro.kernel.syscalls import SEEK_END
from repro.nfs import build_world
from repro.s5fs import S5FileSystem, s5_mkfs, s5check
from repro.ufs import fsck
from repro.units import KB

# 700 bytes, then 9 000 more: across the 1 KB block at 1024 and the 8 KB
# page at 8192.  The overwrite crosses the block boundary at 1024 again.
FIRST = bytes(i % 251 for i in range(700))
SECOND = bytes(i % 241 for i in range(9000))
OVERWRITE = b"\xee" * 100
# What the program writes after ``creat`` has emptied the file.
AFTER_CREAT = b"0123456789"


#: The program each file system runs.
PROGRAM = (
    ("creat", "/f"),
    ("write", "/f", FIRST),
    ("write", "/f", SECOND),
    ("pwrite", "/f", OVERWRITE, 1000),
    ("fsync", "/f"),
    ("close", "/f"),
    ("open", "/f"),
    ("pread", "/f", 16 * KB, 0),
    ("lseek", "/f", 0, SEEK_END),
    ("close", "/f"),
    ("creat", "/f"),  # exists, holds bytes: truncated
    ("stat_size", "/f"),
    ("write", "/f", AFTER_CREAT),
    ("pread", "/f", 16 * KB, 0),
    ("close", "/f"),
    ("unlink", "/f"),
    ("open", "/f"),
)

#: The namespace program's set-up: it must succeed on every file system.
NAMESPACE_SETUP = (("creat", "/a"), ("close", "/a"))

#: ``link``, ``symlink``, ``readlink``, ``rename``, ``mkdir``, ``rmdir``
#: and ``readdir`` of the ``/a`` the set-up made.
NAMESPACE = (
    ("link", "/a", "/b"),
    ("symlink", "/a", "/s"),
    ("readlink", "/s"),
    ("rename", "/a", "/c"),
    ("mkdir", "/d"),
    ("rmdir", "/d"),
    ("readdir", "/"),
)


def transcript(proc: Proc, program=PROGRAM) -> list:
    """Run ``program`` op by op: each op's result, or its errno.  Any
    other exception escapes and fails the test."""
    fds: dict[str, int] = {}
    out = []
    for op in program:
        proc.errno = None
        try:
            out.append(proc.system.run(step(proc, fds, op)))
        except ReproError:
            assert proc.errno is not None
            out.append(proc.errno)
    return out


def after_creat(out: list) -> list:
    """What the transcript saw after ``creat`` of the existing ``/f``:
    its size, then the write and the read-back."""
    return out[11:14]


#: ``creat`` left the file empty: size 0, then exactly the 10 bytes.
EMPTIED = [0, len(AFTER_CREAT), AFTER_CREAT]


def s5_machine() -> "tuple[System, S5FileSystem]":
    system = System(SystemConfig.config_a())
    s5_mkfs(system.store)
    return system, S5FileSystem(system)


def test_ufs_and_s5fs_run_one_program_to_the_same_bytes_and_errnos():
    ufs = transcript(Proc(System.booted(SystemConfig.config_a())))
    system, fs = s5_machine()
    assert system.mount is fs
    s5 = transcript(Proc(system))
    data = bytearray(FIRST + SECOND)
    data[1000:1100] = OVERWRITE
    assert ufs[7] == bytes(data)
    assert ufs[8] == len(data)
    assert ufs[-1] == "ENOENT"
    assert [after_creat(ufs), after_creat(s5)] == [EMPTIED, EMPTIED]
    assert s5 == ufs
    system.sync()  # the machine's sync is its S5FS's
    assert s5check(system.store).clean


def test_an_nfs_client_runs_the_same_program():
    ufs = transcript(Proc(System.booted(SystemConfig.config_a())))
    client, server, mount = build_world()
    assert client.mount is mount
    nfs = transcript(Proc(client))
    assert after_creat(nfs) == EMPTIED
    assert nfs == ufs
    assert mount.stats["rpc_setattr"] == 1
    assert mount.stats["rpc_remove"] == 1
    server.sync()
    assert fsck(server.store).clean


def namespace_transcript(proc: Proc) -> list:
    """The seven namespace syscalls' results, or their errnos, after a
    set-up whose error escapes and fails the test."""
    proc.system.run(run(proc, NAMESPACE_SETUP))
    return transcript(proc, NAMESPACE)


def test_every_file_system_answers_every_namespace_syscall():
    """UFS has all seven; S5FS and an NFS client have none of them, and
    answer each with EINVAL."""
    ufs = namespace_transcript(Proc(System.booted(SystemConfig.config_a())))
    assert ufs[:6] == [None, None, "/a", None, None, None]
    assert sorted(name for name, _ino in ufs[6]) == [".", "..", "b", "c",
                                                     "s"]
    s5_system, _fs = s5_machine()
    client, _server, _mount = build_world()
    for system in (s5_system, client):
        assert namespace_transcript(Proc(system)) == ["EINVAL"] * 7


def test_bmap_extents_sum_to_the_file_size():
    """``measure_extents`` builds extents from ``Vnode.bmap`` runs on UFS
    and on S5FS alike; an NFS client has no block map."""
    ufs = System.booted(SystemConfig.config_a())
    s5, _fs = s5_machine()
    for system in (ufs, s5):
        proc = Proc(system)
        transcript(proc)
        fd = system.run(proc.creat("/g"))
        system.run(proc.write(fd, FIRST + SECOND))
        report = measure_extents(system, "/g")
        assert report.file_size == len(FIRST + SECOND)
        assert sum(report.extents) == report.file_size
        assert report.count >= 1
    client, _server, mount = build_world()
    vn = client.run(mount.create("/h"))
    with pytest.raises(InvalidArgumentError):
        client.run(vn.bmap(0))
    with pytest.raises(InvalidArgumentError):
        mount.statfs()


def test_s5fs_is_a_file_system_of_the_machine():
    """No page cache under S5FS: mapping its file is EINVAL.  Its
    syscalls are requests of the machine, its counters metrics of it."""
    system, _fs = s5_machine()
    proc = Proc(system)
    transcript(proc)
    fd = system.run(proc.creat("/m"))
    system.run(proc.write(fd, bytes(8 * KB)))
    with pytest.raises(InvalidArgumentError):
        system.run(proc.mmap_read(fd, 0, 8 * KB))
    assert proc.errno == "EINVAL"
    snapshot = system.metrics.snapshot()
    assert snapshot["s5fs"]["creates"] == 2
    assert snapshot["s5fs"]["unlinks"] == 1
    assert snapshot["s5fs.metacache"]["hits"] > 0
    # The program's 3 writes, pwrite, fsync and 2 preads; a write,
    # mmap_read.
    assert system.requests.stats["started"] == 9
    assert system.requests.stats["errors"] == 1  # the mmap_read
