"""The buf: a disk I/O request, in the spirit of the BSD ``struct buf``.

A buf carries an operation, a linear sector address, a length, and the data
(for writes; filled in for reads).  Completion is signalled through the
``done`` event (``biowait`` = ``yield buf.done``) and through ``iodone``
callbacks (the ``b_iodone`` hook the clustered putpage path uses to release
write-limit bytes from interrupt context).
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Callable

from repro.sim.events import Event
from repro.units import SECTOR_SIZE

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine


class BufOp(enum.Enum):
    """Direction of a disk transfer."""

    READ = "read"
    WRITE = "write"
    #: A cache-flush command: no data, drains the drive's volatile write
    #: cache to the media before completing.
    FLUSH = "flush"


class Buf:
    """One disk request.

    Flags mirror the kernel's: ``async_`` is B_ASYNC (caller does not wait),
    ``ordered`` is the paper's proposed B_ORDER barrier (may not be reordered
    by disksort, the driver, or the controller), and ``fua`` is force unit
    access — the write bypasses any volatile write cache and is durable on
    the media when it completes.
    """

    __slots__ = (
        "id", "op", "sector", "nsectors", "data", "async_", "ordered", "fua",
        "done", "iodone", "owner", "issued_at", "started_at", "finished_at",
        "children", "error", "request", "parent_span", "integrity_owner",
        "member", "seek_rot_time", "xfer_time",
    )

    def __init__(self, engine: "Engine", op: BufOp, sector: int, nsectors: int,
                 data: bytes | None = None, async_: bool = False,
                 ordered: bool = False, fua: bool = False, owner: str = ""):
        if op is BufOp.FLUSH:
            if nsectors != 0 or data is not None:
                raise ValueError("flush buf carries no sectors or data")
        elif nsectors <= 0:
            raise ValueError("nsectors must be positive")
        if sector < 0:
            raise ValueError("sector must be >= 0")
        if op is BufOp.WRITE and data is None:
            raise ValueError("write buf requires data")
        # Per-engine, not per-process: same-seed runs number
        # their bufs identically (trace-export determinism).
        self.id = next(engine.buf_ids)
        self.op = op
        self.sector = sector
        self.nsectors = nsectors
        self.data = data
        self.async_ = async_
        self.ordered = ordered
        self.fua = fua
        self.done: Event = Event(engine, name=("buf%d.done", self.id))
        self.iodone: list[Callable[["Buf"], None]] = []
        self.owner = owner
        self.issued_at = engine.now
        self.started_at: float | None = None
        self.finished_at: float | None = None
        #: For coalesced (driver-clustered) parents: the original requests.
        self.children: list["Buf"] = []
        self.error: BaseException | None = None
        #: The logical I/O request this transfer serves (None for internal
        #: or coalesced-parent bufs); completion reports back to it.
        self.request: "Any | None" = None
        #: The span under which this buf was issued (for the request's
        #: disk_io subtree); meaningful only while tracing.
        self.parent_span: "Any | None" = None
        #: (inode, first logical block) of a file write, for integrity
        #: record attribution; None for metadata/raw/untagged writes.
        self.integrity_owner: "tuple[int, int] | None" = None
        #: Volume member index this transfer was fanned out to; None for
        #: single-disk requests (labels the disk_io span ``disk_io[mN]``).
        self.member: "int | None" = None
        #: Mechanical-position time charged to this transfer: seeks, head
        #: switches, rotational latency, track-buffer fill waits.  Filled
        #: by the disk during service; the request layer turns the pair
        #: into rotation_seek / transfer spans for time attribution.
        self.seek_rot_time = 0.0
        #: Time the bytes actually moved (media sector times, bus time).
        self.xfer_time = 0.0

    @property
    def end_sector(self) -> int:
        """One past the last sector of the request."""
        return self.sector + self.nsectors

    @property
    def nbytes(self) -> int:
        return self.nsectors * SECTOR_SIZE

    @property
    def is_read(self) -> bool:
        return self.op is BufOp.READ

    @property
    def is_write(self) -> bool:
        return self.op is BufOp.WRITE

    @property
    def is_flush(self) -> bool:
        return self.op is BufOp.FLUSH

    @classmethod
    def flush(cls, engine: "Engine", async_: bool = False,
              owner: str = "") -> "Buf":
        """A FLUSH command: an ordered, zero-length barrier that drains the
        drive's volatile write cache (queued behind everything pending)."""
        return cls(engine, BufOp.FLUSH, 0, 0, async_=async_, ordered=True,
                   owner=owner)

    def adjacent_to(self, other: "Buf") -> bool:
        """True if this request is contiguous with ``other`` (either side)."""
        return self.end_sector == other.sector or other.end_sector == self.sector

    def complete(self, error: BaseException | None = None) -> None:
        """Mark the request finished, run iodone hooks, trigger ``done``.

        Completing twice would run the iodone hooks twice (double-crediting
        throttles, double-freeing pages) — it is a simulation bug, reported
        as such rather than as a confusing "event already triggered".
        """
        if self.done.triggered:
            from repro.sim.engine import SimulationError

            raise SimulationError(
                f"{self!r} completed twice (owner={self.owner!r})"
            )
        self.finished_at = self.done.engine.now
        self.error = error
        for hook in self.iodone:
            hook(self)
        if self.request is not None:
            self.request.io_done(self)
        if error is None:
            # No value: ``succeed(self)`` would tie buf and event into a
            # reference cycle, and every finished transfer's data would
            # sit in memory until the cycle collector next ran.
            self.done.succeed()
        else:
            self.done.fail(error)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = "".join(
            flag for flag, on in (
                ("A", self.async_), ("O", self.ordered), ("F", self.fua),
            ) if on
        )
        return (
            f"<Buf#{self.id} {self.op.value} sec={self.sector}+{self.nsectors}"
            f"{' ' + flags if flags else ''}>"
        )
