"""vnode / vfs interfaces.

Each file system type implements two object classes, *vfs* and *vnode*
[Kleiman].  Only the operations this reproduction exercises are declared:
``rdwr`` (read/write syscalls), ``getpage``/``putpage`` (where the I/O
happens), ``fsync``, ``bmap`` (the paper's extent interface), ``truncate``
(the one way a file is emptied), ``statfs``, and the namespace operations
the syscall layer calls on a ``Vfs``.  Every file system has ``namei``,
``create`` and ``unlink``; one that lacks any other answers it with
EINVAL, so a syscall always fails with an errno.

All operations that may perform I/O are generators (simulation processes);
call them with ``yield from``.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from dataclasses import dataclass
from itertools import count
from typing import TYPE_CHECKING, Any, Callable, Generator, Iterator, NamedTuple

from repro.errors import InvalidArgumentError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.throttle import WriteThrottle
    from repro.vm.page import Page

_vnode_ids = count(1)


class VnodeType(enum.Enum):
    """File type, as far as this reproduction needs."""

    REGULAR = "VREG"
    DIRECTORY = "VDIR"
    BLOCK = "VBLK"


class RW(enum.Enum):
    """Direction of an rdwr call (UIO_READ / UIO_WRITE)."""

    READ = "read"
    WRITE = "write"


@dataclass(frozen=True)
class PutFlags:
    """How a putpage call should behave.

    ``delay``
        The delayed-write path used when ufs_rdwr unmaps a dirty page; this
        is where the paper's write clustering lives ("pretend the I/O
        completed immediately").
    ``async_``
        Start the write but do not wait for it (B_ASYNC).
    ``free``
        Free the page once clean (B_FREE) — free-behind and pageout use it.
    """

    delay: bool = False
    async_: bool = False
    free: bool = False

    def __post_init__(self) -> None:
        if self.delay and self.async_:
            raise ValueError("delayed writes cannot also be async")


class Vnode(ABC):
    """A file, as seen by the kernel."""

    def __init__(self, vtype: VnodeType):
        self.vnode_id = next(_vnode_ids)
        self.vtype = vtype

    # -- data plane --------------------------------------------------------
    @property
    @abstractmethod
    def size(self) -> int:
        """Current file size in bytes."""

    @abstractmethod
    def rdwr(self, rw: RW, offset: int, payload: "bytes | int",
             req: Any | None = None) -> Generator[Any, Any, bytes | int]:
        """Read or write at ``offset``.

        For ``RW.READ``, ``payload`` is a byte count; returns the bytes read
        (may be short at EOF).  For ``RW.WRITE``, ``payload`` is the data;
        returns the byte count written.

        ``req`` is the optional :class:`~repro.sim.request.IORequest`
        context the caller opened at the syscall boundary; implementations
        thread it down so disk transfers are attributed to the request.
        Every operation below accepts the same optional ``req``.
        """

    @abstractmethod
    def getpage(self, offset: int, rw: RW = RW.READ,
                req: Any | None = None) -> Generator[Any, Any, "Page"]:
        """Return the page at ``offset``, reading it in if necessary."""

    @abstractmethod
    def putpage(self, offset: int, length: int, flags: PutFlags,
                req: Any | None = None) -> Generator[Any, Any, None]:
        """Write pages in ``[offset, offset+length)`` back to storage."""

    def fsync(self, req: Any | None = None) -> Generator[Any, Any, None]:
        """Flush all dirty pages synchronously (default: via putpage)."""
        yield from self.putpage(0, max(self.size, 0), PutFlags(), req=req)

    def bmap(self, lbn: int) -> Generator[Any, Any, tuple[int, int]]:
        """``(address, contiguous blocks)`` of logical block ``lbn``: the
        address in ``statfs().f_frsize`` units (0 and 1 for a hole), the
        length capped at the file system's cluster size.  EINVAL where
        there is no block map (an NFS client)."""
        raise InvalidArgumentError(f"{type(self).__name__} has no block map")
        yield  # pragma: no cover - makes this a generator

    def truncate(self) -> Generator[Any, Any, None]:
        """Empty the file (length 0): its blocks, its cached pages and the
        performance state that described its bytes go.  EINVAL where the
        file has no bytes of its own to free (a raw disk)."""
        raise InvalidArgumentError(f"{type(self).__name__}: truncate not "
                                   "supported")
        yield  # pragma: no cover - makes this a generator

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} v{self.vnode_id} {self.vtype.value}>"


class StatFs(NamedTuple):
    """statvfs(2)'s sizes: a file's blocks are ``f_bsize`` bytes, the counts
    ``f_frsize``; ``f_bavail`` is ``f_bfree`` less the minfree reserve."""

    f_bsize: int
    f_frsize: int
    f_blocks: int
    f_bfree: int
    f_bavail: int


class Vfs(ABC):
    """A mounted instance of a file system."""

    def __init__(self, name: str):
        self.name = name

    @property
    @abstractmethod
    def root(self) -> Vnode:
        """The root vnode of this file system."""

    def sync(self) -> Generator[Any, Any, None]:
        """Flush file system state (default: nothing)."""
        return
        yield  # pragma: no cover - makes this a generator

    def statfs(self) -> StatFs:
        """Sizes and free space, no I/O (EINVAL: NFS serves no STATFS)."""
        raise InvalidArgumentError(f"{self.name}: statfs not supported")

    # -- namespace ---------------------------------------------------------
    @abstractmethod
    def namei(self, path: str) -> Generator[Any, Any, Any]:
        """The file ``path`` names (ENOENT when there is none)."""

    @abstractmethod
    def create(self, path: str) -> Generator[Any, Any, Any]:
        """A new empty regular file at ``path``."""

    @abstractmethod
    def unlink(self, path: str) -> Generator[Any, Any, None]:
        """Remove the name ``path`` and, with its last name, the file."""

    def _unsupported(self, op: str) -> Generator[Any, Any, Any]:
        raise InvalidArgumentError(f"{self.name}: {op} not supported")
        yield  # pragma: no cover - makes this a generator

    def link(self, existing: str, new_path: str) -> Generator[Any, Any, None]:
        """A second name for ``existing`` (default: EINVAL)."""
        return self._unsupported("link")

    def symlink(self, target: str, link_path: str
                ) -> Generator[Any, Any, Any]:
        """A symbolic link at ``link_path`` (default: EINVAL)."""
        return self._unsupported("symlink")

    def readlink(self, path: str) -> Generator[Any, Any, str]:
        """The target of the symbolic link ``path`` (default: EINVAL)."""
        return self._unsupported("readlink")

    def rename(self, old_path: str, new_path: str
               ) -> Generator[Any, Any, None]:
        """Move a name (default: EINVAL)."""
        return self._unsupported("rename")

    def mkdir(self, path: str) -> Generator[Any, Any, Any]:
        """A new directory (default: EINVAL)."""
        return self._unsupported("mkdir")

    def rmdir(self, path: str) -> Generator[Any, Any, None]:
        """Remove an empty directory (default: EINVAL)."""
        return self._unsupported("rmdir")

    def readdir(self, path: str
                ) -> Generator[Any, Any, list[tuple[str, int]]]:
        """``(name, inode number)`` per entry of ``path`` (default:
        EINVAL)."""
        return self._unsupported("readdir")

    def throttles(self) -> Iterator[tuple[str, "WriteThrottle"]]:
        """``(owner label, WriteThrottle)`` per file (default: none)."""
        return iter(())

    def cached_fragment(self, frag: int, ino: int, lbn: int,
                        off: int) -> "bytes | None":
        """Fragment ``frag``'s bytes from the page cache, when it is
        fragment ``off`` of logical block ``lbn`` of live inode ``ino`` and
        that block is cached: the scrubber's repair source for data
        (default: none)."""
        return None

    # -- the sanitizer's checks of this file system's own books ------------
    # The defaults check nothing: S5FS and the NFS client have no check of
    # their own yet, so they run the same eight checks with these two empty.
    def check_page_coherency(self, point: str,
                             fail: Callable[..., None]) -> None:
        """``page_coherency``: every clean cached page equals the bytes it
        caches, and every decoded metadata view equals its bytes."""

    def check_allocator(self, point: str, deep: bool,
                        fail: Callable[..., None]) -> None:
        """``allocator``: the free maps agree with their counters and with
        every block a file claims; ``deep`` also walks the on-disk bytes
        (only after a full sync)."""
