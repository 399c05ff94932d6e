"""The syscall layer: what a simulated user process programs against.

A :class:`Proc` owns a file-descriptor table; its methods are generators
(simulation processes) implementing open/creat/read/write/lseek/close/
fsync/unlink/mkdir plus an mmap-style ``mmap_read`` that drives the fault
path without copyout (the paper's figure 12 benchmark interface).
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Any, Generator

from repro.errors import (
    BadFileError, FileNotFoundError_, InvalidArgumentError, ReproError,
)
from repro.sim.events import EventFailed
from repro.vfs.vnode import RW

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.ledger import Ledger
    from repro.kernel.system import System
    from repro.vfs.vnode import Vnode

SEEK_SET = 0
SEEK_CUR = 1
SEEK_END = 2


def _syscall(method):
    """Mirror the errno-style ``code`` of a failed syscall in ``proc.errno``.

    Like the C library, ``errno`` is only written when a call fails; it
    keeps the last failure's code otherwise.  Failed simulation events that
    escape the I/O stack are unwrapped so callers always see the modelled
    :class:`ReproError`, never the engine's ``EventFailed`` envelope.
    """

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        try:
            return (yield from method(self, *args, **kwargs))
        except ReproError as exc:
            self.errno = exc.code
            raise
        except EventFailed as failure:
            cause = failure.args[0] if failure.args else failure
            if isinstance(cause, ReproError):
                self.errno = cause.code
                raise cause from None
            raise

    return wrapper


class _OpenFile:
    __slots__ = ("vnode", "path", "offset", "sync")

    def __init__(self, vnode: "Vnode", path: str, sync: bool = False):
        self.vnode = vnode
        self.path = path
        self.offset = 0
        #: O_SYNC: every write is acknowledged only once durable.
        self.sync = sync


class Proc:
    """A simulated process: an fd table and an address space.

    It talks to the machine's ``system.mount``, whichever Vfs that is: a
    UFS, an S5FileSystem, or an NFS client's mount (errnos include a soft
    mount's ETIMEDOUT).  ``mount`` overrides it only because ``perfbench``,
    which must not change, passes it.

    ``ledger`` (a :class:`~repro.faults.ledger.Ledger`) records what the
    process was promised where each syscall returns: writes, fsync and
    O_SYNC returns, unlinks and renames.
    """

    def __init__(self, system: "System", name: str = "proc", mount=None,
                 ledger: "Ledger | None" = None):
        from repro.vm.addrspace import AddressSpace

        self.system = system
        self.name = name
        self._mount_override = mount
        self.ledger = ledger
        self._files: dict[int, _OpenFile] = {}
        self._next_fd = 3  # 0-2 reserved, as tradition demands
        #: errno-style code ("EIO", "ENOSPC", ...) of the last failed
        #: syscall; None until something fails.
        self.errno: "str | None" = None
        self.addrspace = AddressSpace(system.engine, system.cpu,
                                      system.pagecache.page_size)

    @property
    def _mount(self):
        mount = self._mount_override or self.system.mount
        if mount is None:
            raise RuntimeError("file system not mounted")
        return mount

    def _file(self, fd: int) -> _OpenFile:
        try:
            return self._files[fd]
        except KeyError:
            raise BadFileError(f"fd {fd} not open") from None

    def _charge_syscall(self) -> Generator[Any, Any, None]:
        cpu = self.system.cpu
        yield from cpu.work("syscall", cpu.costs.syscall)

    def _request(self, kind: str, **fields: Any):
        """Open an :class:`~repro.sim.request.IORequest` for one syscall.

        This is the top of the request pipeline: the returned context is
        threaded down through the vnode layer so every disk transfer (and,
        when tracing, every span) is attributed to this call.
        """
        return self.system.requests.start(kind, origin=self.name, **fields)

    # -- fd lifecycle --------------------------------------------------------
    @_syscall
    def open(self, path: str, create: bool = False,
             sync: bool = False) -> Generator[Any, Any, int]:
        """Open (optionally creating) a file; returns the fd.

        ``sync=True`` is O_SYNC: every write through this fd is pushed
        durable (data, inode, and a disk flush) before it returns.
        """
        yield from self._charge_syscall()
        mount = self._mount
        try:
            vnode = yield from mount.namei(path)
        except FileNotFoundError_:
            if not create:
                raise
            vnode = yield from mount.create(path)
            if self.ledger is not None:
                self.ledger.created(path)
        fd = self._next_fd
        self._next_fd += 1
        self._files[fd] = _OpenFile(vnode, path, sync=sync)
        return fd

    def creat(self, path: str) -> Generator[Any, Any, int]:
        return (yield from self.open(path, create=True))

    @_syscall
    def close(self, fd: int) -> Generator[Any, Any, None]:
        yield from self._charge_syscall()
        self._file(fd)
        del self._files[fd]

    # -- I/O --------------------------------------------------------------------
    @_syscall
    def read(self, fd: int, count: int) -> Generator[Any, Any, bytes]:
        """Read ``count`` bytes at the fd's offset (short at EOF)."""
        yield from self._charge_syscall()
        f = self._file(fd)
        req = self._request("read", fd=fd, offset=f.offset, count=count)
        try:
            data = yield from f.vnode.rdwr(RW.READ, f.offset, count, req=req)
        except BaseException as exc:
            req.complete(error=exc)
            raise
        req.complete()
        assert isinstance(data, bytes)
        f.offset += len(data)
        return data

    @_syscall
    def write(self, fd: int, data: bytes) -> Generator[Any, Any, int]:
        """Write at the fd's offset; returns bytes written."""
        yield from self._charge_syscall()
        f = self._file(fd)
        ledger = self.ledger
        if ledger is not None:
            # Before the write issues: from here on any sector of the new
            # version may legally reach the platter.
            ledger.wrote(f.path, f.offset, data)
        req = self._request("write", fd=fd, offset=f.offset, count=len(data))
        try:
            n = yield from f.vnode.rdwr(RW.WRITE, f.offset, data, req=req)
            if f.sync:
                # O_SYNC: the write is durable before it returns.
                yield from f.vnode.fsync(req=req)
        except BaseException as exc:
            req.complete(error=exc)
            raise
        req.complete()
        if f.sync and ledger is not None:
            ledger.synced(f.path)
        assert isinstance(n, int)
        f.offset += n
        return n

    def pread(self, fd: int, count: int, offset: int) -> Generator[Any, Any, bytes]:
        yield from self.lseek(fd, offset, SEEK_SET)
        return (yield from self.read(fd, count))

    def pwrite(self, fd: int, data: bytes, offset: int) -> Generator[Any, Any, int]:
        yield from self.lseek(fd, offset, SEEK_SET)
        return (yield from self.write(fd, data))

    @_syscall
    def lseek(self, fd: int, offset: int, whence: int = SEEK_SET
              ) -> Generator[Any, Any, int]:
        f = self._file(fd)
        if whence == SEEK_SET:
            new = offset
        elif whence == SEEK_CUR:
            new = f.offset + offset
        elif whence == SEEK_END:
            new = f.vnode.size + offset
        else:
            raise InvalidArgumentError(f"bad whence {whence}")
        if new < 0:
            raise InvalidArgumentError("negative file offset")
        f.offset = new
        return new
        yield  # pragma: no cover - lseek does no I/O but stays a generator

    @_syscall
    def fsync(self, fd: int) -> Generator[Any, Any, None]:
        yield from self._charge_syscall()
        f = self._file(fd)
        req = self._request("fsync", fd=fd)
        try:
            yield from f.vnode.fsync(req=req)
        except BaseException as exc:
            req.complete(error=exc)
            raise
        req.complete()
        if self.ledger is not None:
            self.ledger.synced(f.path)
        # fsync is a quiesce point for *this file*, not the machine: other
        # processes may be mid-I/O, so only the always-true checks run.
        self.system.sanitizer.checkpoint("fsync", idle=False)

    def mmap(self, fd: int, length: int, offset: int = 0,
             writable: bool = False):
        """Map [offset, offset+length) of the file; returns the Segment."""
        f = self._file(fd)
        return self.addrspace.map(f.vnode, length, offset, writable)

    @_syscall
    def munmap(self, segment) -> Generator[Any, Any, None]:
        """Remove a mapping, flushing mapped writes (only
        ``tests/vm/test_addrspace.py`` calls it)."""
        yield from self._charge_syscall()
        yield from self.addrspace.unmap(segment)

    @_syscall
    def msync(self, segment) -> Generator[Any, Any, None]:
        """Flush a mapping's dirty pages synchronously."""
        yield from self._charge_syscall()
        yield from self.addrspace.msync(segment)

    def mem_read(self, addr: int, count: int) -> Generator[Any, Any, bytes]:
        """A load through the address space (faults pages in)."""
        return (yield from self.addrspace.read(addr, count))

    def mem_write(self, addr: int, data: bytes) -> Generator[Any, Any, int]:
        """A store through the address space (write faults)."""
        return (yield from self.addrspace.write(addr, data))

    @_syscall
    def mmap_read(self, fd: int, offset: int, length: int
                  ) -> Generator[Any, Any, int]:
        """Touch every page of [offset, offset+length) through the fault
        path, without copying to a user buffer (the figure 12 benchmark).

        Returns the number of pages touched.
        """
        yield from self._charge_syscall()
        f = self._file(fd)
        psize = self.system.pagecache.page_size
        if offset % psize:
            raise InvalidArgumentError("mmap offset must be page aligned")
        length = min(length, f.vnode.size - offset)
        segment = self.addrspace.map(f.vnode, length, offset)
        req = self._request("mmap_read", fd=fd, offset=offset, count=length)
        try:
            touched = 0
            addr = segment.base
            while addr < segment.end:
                yield from self.addrspace.fault(addr, RW.READ, req=req)
                touched += 1
                addr += psize
            yield from self.addrspace.unmap(segment)
        except BaseException as exc:
            req.complete(error=exc)
            raise
        req.complete()
        return touched

    # -- namespace operations ------------------------------------------------------
    @_syscall
    def link(self, existing: str, new_path: str) -> Generator[Any, Any, None]:
        yield from self._charge_syscall()
        yield from self._mount.link(existing, new_path)

    @_syscall
    def symlink(self, target: str, link_path: str) -> Generator[Any, Any, None]:
        yield from self._charge_syscall()
        yield from self._mount.symlink(target, link_path)

    @_syscall
    def readlink(self, path: str) -> Generator[Any, Any, str]:
        yield from self._charge_syscall()
        return (yield from self._mount.readlink(path))

    @_syscall
    def unlink(self, path: str) -> Generator[Any, Any, None]:
        yield from self._charge_syscall()
        ledger = self.ledger
        if ledger is not None:
            ledger.unlinking(path)
        yield from self._mount.unlink(path)
        if ledger is not None:
            ledger.unlinked(path)

    @_syscall
    def rename(self, old_path: str, new_path: str) -> Generator[Any, Any, None]:
        yield from self._charge_syscall()
        ledger = self.ledger
        if ledger is not None:
            ledger.renaming(old_path, new_path)
        yield from self._mount.rename(old_path, new_path)
        if ledger is not None:
            ledger.renamed(old_path, new_path)

    @_syscall
    def mkdir(self, path: str) -> Generator[Any, Any, None]:
        yield from self._charge_syscall()
        yield from self._mount.mkdir(path)

    @_syscall
    def rmdir(self, path: str) -> Generator[Any, Any, None]:
        yield from self._charge_syscall()
        yield from self._mount.rmdir(path)

    @_syscall
    def readdir(self, path: str) -> Generator[Any, Any, list[tuple[str, int]]]:
        yield from self._charge_syscall()
        return (yield from self._mount.readdir(path))

    @_syscall
    def stat_size(self, path: str) -> Generator[Any, Any, int]:
        """``path``'s size.  Tests only: the lossy-NFS trace golden of
        ``tests/sim/test_order_preserved.py`` records its LOOKUP."""
        yield from self._charge_syscall()
        vn = yield from self._mount.namei(path)
        return vn.size
