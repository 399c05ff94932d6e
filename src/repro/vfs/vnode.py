"""vnode / vfs interfaces.

Each file system type implements two object classes, *vfs* and *vnode*
[Kleiman].  Only the operations this reproduction exercises are declared:
``rdwr`` (read/write syscalls), ``getpage``/``putpage`` (where the I/O
happens), ``fsync``, ``bmap`` (the paper's extent interface), ``statfs``.

All operations that may perform I/O are generators (simulation processes);
call them with ``yield from``.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from dataclasses import dataclass
from itertools import count
from typing import TYPE_CHECKING, Any, Generator, Iterator, NamedTuple

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
    ``invalidate``
        Destroy the page after the write (B_INVAL).
    """

    delay: bool = False
    async_: bool = False
    free: bool = False
    invalidate: bool = False

    def __post_init__(self) -> None:
        if self.delay and (self.async_ or self.invalidate):
            raise ValueError("delayed writes cannot also be async/invalidate")


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

    def throttles(self) -> Iterator[tuple[str, "WriteThrottle"]]:
        """``(owner label, WriteThrottle)`` per file (default: none)."""
        return iter(())
