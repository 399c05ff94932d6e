"""A physical page frame.

A frame is made on its first allocation (no kernel touches memory at boot)
and recycled forever after.  It may be *named* by a ``<vnode, offset>``
identity, holds real data bytes, and carries the usual flags: valid, dirty,
locked, referenced, and free.  A page can be simultaneously free and named
— that is what makes the free list a cache (reclaim) rather than a garbage
pile.

A page's bytes are held once.  ``data`` is an immutable ``bytes`` shared
with whoever else holds those exact bytes — the shared zero block, the
writer's buffer, an NFS reply, a ``DiskStore`` chunk — until the page is
written: :meth:`Page.write`, the only mutator, adopts a whole page of
``bytes`` and otherwise copies the frame once into a private ``bytearray``.
Everyone else reads ``data`` and never stores into it.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Any, Generator

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine
    from repro.vfs.vnode import Vnode


@functools.cache
def zero_block(size: int) -> bytes:
    """The one all-zero page of ``size`` bytes: every frame of that size is
    born holding it, and all-zero contents collapse to it."""
    return bytes(size)


class Page:
    """One page frame."""

    __slots__ = (
        "engine", "frame", "size", "data", "vnode", "offset",
        "valid", "dirty", "locked", "referenced", "free",
        "_lock_waiters",
    )

    def __init__(self, engine: "Engine", frame: int, size: int):
        self.engine = engine
        self.frame = frame
        self.size = size
        #: Immutable shared ``bytes``, or a private ``bytearray`` once
        #: :meth:`write` has stored part of a page into it.
        self.data: "bytes | bytearray" = zero_block(size)
        self.vnode: "Vnode | None" = None
        self.offset = -1
        self.valid = False
        self.dirty = False
        self.locked = False
        self.referenced = False
        self.free = True
        self._lock_waiters: list[Event] = []

    # -- identity ----------------------------------------------------------
    @property
    def named(self) -> bool:
        """True if the frame currently caches some vnode page."""
        return self.vnode is not None

    def name(self, vnode: "Vnode", offset: int) -> None:
        """Give the frame a new identity (must be anonymous)."""
        if self.named:
            raise RuntimeError(f"frame {self.frame} already named")
        if offset < 0 or offset % self.size != 0:
            raise ValueError(f"offset {offset} not page aligned")
        self.vnode = vnode
        self.offset = offset

    def unname(self) -> None:
        """Strip identity and contents (frame becomes anonymous)."""
        self.vnode = None
        self.offset = -1
        self.valid = False
        self.dirty = False
        self.referenced = False

    # -- locking ------------------------------------------------------------
    def lock(self) -> None:
        """Claim the page for I/O or mutation (must be unlocked)."""
        if self.locked:
            raise RuntimeError(f"page frame {self.frame} already locked")
        self.locked = True

    def unlock(self) -> None:
        """Release the page and wake anyone waiting for it."""
        if not self.locked:
            raise RuntimeError(f"page frame {self.frame} not locked")
        self.locked = False
        waiters, self._lock_waiters = self._lock_waiters, []
        for ev in waiters:
            ev.succeed(self)

    def lock_wait(self) -> Generator[Event, Any, None]:
        """Wait until the page is unlocked, then lock it.  ``yield from``."""
        yield from self.wait_unlocked()
        self.lock()

    def wait_unlocked(self) -> Generator[Event, Any, None]:
        """Wait until the page is unlocked (without taking the lock)."""
        while self.locked:
            ev = Event(self.engine, name=("page%d.unlockwait", self.frame))
            self._lock_waiters.append(ev)
            yield ev

    # -- data plane -----------------------------------------------------------
    def fill(self, data: bytes) -> None:
        """Install page contents (pads short data with zeros).

        A whole page of ``bytes`` (a disk read, an NFS reply) is adopted, not
        copied.
        """
        if len(data) > self.size:
            raise ValueError(f"data length {len(data)} exceeds page size {self.size}")
        self._adopt(bytes(data).ljust(self.size, b"\0"))

    def zero(self) -> None:
        """Zero-fill (used for holes in files)."""
        self.data = zero_block(self.size)

    def write(self, offset: int, data: bytes) -> None:
        """Store ``data`` at ``offset`` within the page.

        A whole page of ``bytes`` is adopted as the page's contents; anything
        else is copied into the page, which first takes a private copy of
        bytes it shares.
        """
        size = self.size
        if offset < 0 or offset + len(data) > size:
            raise ValueError(f"write [{offset}, {offset + len(data)}) "
                             f"outside page of {size} bytes")
        if len(data) == size and type(data) is bytes:
            self._adopt(data)
            return
        buffer = self.data
        if type(buffer) is not bytearray:
            buffer = self.data = bytearray(buffer)
        buffer[offset:offset + len(data)] = data

    def share(self, block: bytes) -> None:
        """Hold ``block`` — immutable bytes someone else keeps, such as the
        block the disk stores — in place of equal contents of the page's
        own; contents that differ stay."""
        if type(block) is bytes and self.data is not block \
                and self.data == block:
            self._adopt(block)

    def _adopt(self, data: bytes) -> None:
        """Hold a whole page of immutable ``data``; all zeros as the shared
        zero block."""
        zero = zero_block(self.size)
        self.data = zero if data == zero else data

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = "".join(
            ch
            for ch, on in (
                ("V", self.valid), ("D", self.dirty), ("L", self.locked),
                ("R", self.referenced), ("F", self.free),
            )
            if on
        )
        ident = f"{self.vnode}@{self.offset}" if self.named else "anon"
        return f"<Page#{self.frame} {ident} [{flags}]>"
