"""Per-file write limiting ("write limits or fairness").

"We do this by adding what is essentially a counting semaphore in the inode.
Each process decrements the semaphore when writing and increments it when
the write is complete.  If the semaphore falls below zero, the writing
process is put to sleep until one of the other writes completes."

Note the order: the charge happens unconditionally (the write is already
queued), and only then does the writer sleep — so a single write larger
than the limit still proceeds, it just stalls the writer afterwards.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine
    from repro.sim.stats import StatSet


class WriteThrottle:
    """The inode's counting semaphore over bytes in the write queue."""

    def __init__(self, engine: "Engine", limit: int, stats: "StatSet",
                 owner: str = ""):
        """``limit`` in bytes; 0 disables throttling entirely.  ``stats``
        is the mount's shared counters, which every file's throttle
        reports into.  ``owner`` labels the file this throttle belongs to
        in sanitizer reports."""
        if limit < 0:
            raise ValueError("limit must be >= 0")
        self.engine = engine
        self.limit = limit
        self.value = limit
        self.owner = owner
        self.stats = stats
        self._waiters: list[Event] = []
        self._drain_waiters: list[Event] = []
        self.sleeps = 0

    @property
    def enabled(self) -> bool:
        return self.limit > 0

    @property
    def in_flight(self) -> int:
        """Bytes currently charged against the limit."""
        if not self.enabled:
            return 0
        return self.limit - self.value

    def take(self, nbytes: int) -> None:
        """Account ``nbytes`` of write being queued (no sleeping here:
        the write must reach the driver before its completion can ever
        credit us back)."""
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        if self.enabled:
            self.value -= nbytes
            self.stats.incr("bytes_taken", nbytes)

    def wait_ok(self) -> Generator[Event, Any, None]:
        """Sleep until the semaphore is non-negative again."""
        if not self.enabled:
            return
        while self.value < 0:
            self.sleeps += 1
            self.stats.incr("sleeps")
            ev = Event(self.engine, name="write-limit")
            self._waiters.append(ev)
            yield ev

    def drain(self) -> Generator[Event, Any, None]:
        """Sleep until no bytes are in flight (the semaphore is full again).

        Completion includes *failed* writes — whoever queued the write must
        credit() from its error path too — so a drain can never wedge on a
        lost slot.  fsync-style barriers use this to let write-behind
        settle before deciding what failed.
        """
        while self.enabled and self.value < self.limit:
            ev = Event(self.engine, name="write-drain")
            self._drain_waiters.append(ev)
            yield ev

    def credit(self, nbytes: int, source: Any = None) -> None:
        """A queued write of ``nbytes`` completed (called from iodone).

        ``source`` is whatever completed (typically the buf): an
        over-credit — crediting more bytes than were ever taken — raises a
        :class:`~repro.sim.invariants.SanitizerError` naming the owner and,
        when the source carries a traced request, its span tree, instead of
        crashing the engine with an anonymous RuntimeError deep in
        interrupt context.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        if not self.enabled:
            return
        self.value += nbytes
        if self.value > self.limit:
            self._over_credited(nbytes, source)
        if self.value >= 0 and self._waiters:
            waiters, self._waiters = self._waiters, []
            for ev in waiters:
                ev.succeed()
        if self.value >= self.limit and self._drain_waiters:
            drainers, self._drain_waiters = self._drain_waiters, []
            for ev in drainers:
                ev.succeed()

    def _over_credited(self, nbytes: int, source: Any) -> None:
        from repro.sim.invariants import SanitizerError, render_request

        who = self.owner or "write throttle"
        detail = f"credited {nbytes} bytes"
        if source is not None:
            detail += f" by {source!r}"
        request = getattr(source, "request", None)
        raise SanitizerError(
            "throttle_conservation",
            f"{who} over-credited: {detail}, leaving value="
            f"{self.value} above limit={self.limit} "
            "(a completion credited bytes it never took)",
            span_tree=render_request(request),
        )
