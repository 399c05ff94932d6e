"""A physical page frame.

A frame is made on its first allocation (no kernel touches memory at boot)
and recycled forever after.  It may be *named* by a ``<vnode, offset>``
identity, holds real data bytes, and carries the usual flags: valid, dirty,
locked, referenced, and free.  A page can be simultaneously free and named
— that is what makes the free list a cache (reclaim) rather than a garbage
pile.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine
    from repro.vfs.vnode import Vnode


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
        self.data = bytearray(size)
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
        """Install page contents (pads short data with zeros)."""
        if len(data) > self.size:
            raise ValueError(f"data length {len(data)} exceeds page size {self.size}")
        self.data[: len(data)] = data
        if len(data) < self.size:
            self.data[len(data):] = bytes(self.size - len(data))

    def zero(self) -> None:
        """Zero-fill (used for holes in files)."""
        self.fill(b"")

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
