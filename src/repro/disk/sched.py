"""Pluggable disk schedulers: the within-sweep service-order policy.

The :class:`~repro.disk.driver.DiskQueue` owns the *structure* of the queue
(elevator sweeps separated by B_ORDER barriers); a :class:`Scheduler`
decides the *order* inside one sweep.  Three policies ship:

``elevator`` (the default)
    Classic ``disksort``: one-way C-LOOK by starting sector, with the
    anti-starvation pass bound real controllers have — a request passed
    over :attr:`ElevatorScheduler.MAX_PASSES` times is served next
    regardless of position.

``fifo``
    Arrival order, as with ``disksort`` compiled out.  Useful as the
    baseline the paper's seek-ordering arguments are made against.

``deadline``
    Elevator order until a request has waited past its deadline, then
    earliest-deadline-first.  Reads get a much shorter deadline than
    writes, which bounds read latency behind the paper's 240 KB asynchronous
    write bursts: a read parked behind a full write queue is promoted after
    :attr:`DeadlineScheduler.READ_DEADLINE` instead of riding out the
    whole sweep.

Every scheduler moves the same bufs to the same sectors — only the order
(and therefore seek time and per-request wait) changes, so on-disk bytes
are identical across schedulers for any workload.

Schedulers are deliberately stateful-per-queue: the elevator's pass counts
live here.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from operator import attrgetter
from typing import TYPE_CHECKING

from repro.units import MS

if TYPE_CHECKING:  # pragma: no cover
    from repro.disk.buf import Buf


_sector = attrgetter("sector")


class Scheduler:
    """The within-sweep policy interface (base class = FIFO behaviour)."""

    name = "base"

    def insert(self, seg: "list[Buf]", buf: "Buf") -> None:
        """Place ``buf`` into the (open) sweep ``seg``."""
        seg.append(buf)

    def select(self, seg: "list[Buf]", last_sector: int, now: float) -> int:
        """Index of the buf to serve next from a non-empty sweep.

        May mutate internal accounting (e.g. elevator pass counts).
        """
        return 0

    def forget(self, buf: "Buf") -> None:
        """Drop per-buf state once ``buf`` leaves the queue."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"


class FifoScheduler(Scheduler):
    """Serve strictly in arrival order."""

    name = "fifo"


class ElevatorScheduler(Scheduler):
    """One-way elevator (C-LOOK) with a starvation bound.

    A pure one-way elevator starves a request parked behind the head while
    a continuous forward stream (e.g. a big sequential write) keeps
    arriving; :attr:`MAX_PASSES` bounds that: a request passed over that
    many times is served next (oldest first), regardless of position.
    """

    name = "elevator"
    MAX_PASSES = 8

    def __init__(self):
        self._passes: dict[int, int] = {}  # buf id -> times passed over

    def insert(self, seg: "list[Buf]", buf: "Buf") -> None:
        insort(seg, buf, key=_sector)

    def select(self, seg: "list[Buf]", last_sector: int, now: float) -> int:
        passes = self._passes
        if passes:  # nobody has been passed over: nobody can be starved
            starved = [
                i for i, b in enumerate(seg)
                if passes.get(b.id, 0) >= self.MAX_PASSES
            ]
            if starved:
                return min(starved, key=lambda i: seg[i].issued_at)
        i = bisect_left(seg, last_sector, key=_sector)
        if i == len(seg):
            i = 0  # wrap: next sweep starts at the lowest sector
        # Everything behind the head was passed over this round.
        for skipped in seg[:i]:
            passes[skipped.id] = passes.get(skipped.id, 0) + 1
        return i

    def forget(self, buf: "Buf") -> None:
        self._passes.pop(buf.id, None)


class DeadlineScheduler(ElevatorScheduler):
    """Elevator order with per-request deadlines (reads before writes).

    Each request's deadline is ``issued_at +`` :attr:`READ_DEADLINE`
    (reads) or ``issued_at +`` :attr:`WRITE_DEADLINE` (writes).  While
    nothing is late the policy is exactly the elevator; once requests are
    past deadline the latest-suffering one (earliest deadline) is served
    first.  With the paper's 240 KB write limit a full write burst takes a
    couple hundred milliseconds to drain — :attr:`READ_DEADLINE` caps what
    a synchronous read can be made to wait behind it.
    """

    name = "deadline"
    READ_DEADLINE = 60 * MS
    WRITE_DEADLINE = 400 * MS

    def deadline_of(self, buf: "Buf") -> float:
        return buf.issued_at + (
            self.READ_DEADLINE if buf.is_read else self.WRITE_DEADLINE
        )

    def select(self, seg: "list[Buf]", last_sector: int, now: float) -> int:
        expired = [i for i, b in enumerate(seg) if self.deadline_of(b) <= now]
        if expired:
            return min(expired,
                       key=lambda i: (self.deadline_of(seg[i]), seg[i].issued_at))
        return super().select(seg, last_sector, now)


SCHEDULERS = {
    "elevator": ElevatorScheduler,
    "fifo": FifoScheduler,
    "deadline": DeadlineScheduler,
}


def make_scheduler(name: str) -> Scheduler:
    """Build a scheduler by name (``elevator``, ``fifo``, ``deadline``)."""
    try:
        cls = SCHEDULERS[name]
    except KeyError:
        raise ValueError(
            f"unknown scheduler {name!r} (have {sorted(SCHEDULERS)})"
        ) from None
    return cls()
