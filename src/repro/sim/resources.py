"""Synchronisation primitives for simulation processes.

These mirror the kernel primitives the paper's code depends on:

* :class:`Semaphore` — counting semaphore with FIFO wakeup.  The per-file
  write limit ("essentially a counting semaphore in the inode") is built on
  this.
* :class:`Resource` — a capacity-limited server (e.g. the CPU) with a
  ``use(duration)`` helper for the common acquire/hold/release pattern.
* :class:`Signal` — a broadcast condition (``sleep``/``wakeup`` in kernel
  terms); every waiter present at :meth:`Signal.fire` is released.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Generator, Iterable

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine


class Semaphore:
    """A counting semaphore with strictly FIFO grant order.

    Unlike a classic semaphore, ``acquire``/``release`` take an ``n`` so the
    write-throttle can count bytes rather than operations.  The count may be
    driven negative only through :meth:`take`, which models the paper's
    "decrement then sleep if below zero" idiom.
    """

    def __init__(self, engine: "Engine", value: int, name: str = "sem"):
        if value < 0:
            raise ValueError("initial semaphore value must be >= 0")
        self.engine = engine
        self.name = name
        self._value = value
        self._waiters: deque[tuple[Event, int]] = deque()

    @property
    def value(self) -> int:
        """Current count (may be negative only transiently via take())."""
        return self._value

    @property
    def waiting(self) -> int:
        """Number of processes blocked on this semaphore."""
        return len(self._waiters)

    def acquire(self, n: int = 1) -> Event:
        """Return an event that triggers once ``n`` units are granted."""
        if n <= 0:
            raise ValueError("acquire count must be positive")
        ev = Event(self.engine, name=("%s.acquire(%d)", self.name, n))
        if not self._waiters and self._value >= n:
            # Uncontended: what queueing and _grant() would do, without the
            # queue.  The event is triggered before anyone can wait on it
            # either way, so the caller's wake-up is the same one heap hop.
            self._value -= n
            ev.succeed()
        else:
            self._waiters.append((ev, n))
            self._grant()
        return ev

    def try_acquire(self, n: int = 1) -> bool:
        """Non-blocking acquire; True on success."""
        if not self._waiters and self._value >= n:
            self._value -= n
            return True
        return False

    def abandon(self, ev: Event, n: int = 1) -> None:
        """Give back an :meth:`acquire` of ``n`` whose waiter will never
        consume it (it was interrupted, or failed, while waiting on ``ev``).

        A still-queued request leaves the queue — the one behind it may now
        fit; one granted in the meantime returns its units.
        """
        if ev.triggered:
            self.release(n)
        else:
            self._waiters.remove((ev, n))
            self._grant()

    def release(self, n: int = 1) -> None:
        """Return ``n`` units and wake FIFO waiters whose requests now fit."""
        if n <= 0:
            raise ValueError("release count must be positive")
        self._value += n
        self._grant()

    def take(self, n: int) -> None:
        """Unconditionally subtract ``n`` (the count may go negative).

        Models the paper's write-limit accounting where the writer charges
        bytes first and sleeps only if the count went negative.
        """
        self._value -= n

    def _grant(self) -> None:
        while self._waiters and self._value >= self._waiters[0][1]:
            ev, n = self._waiters.popleft()
            self._value -= n
            ev.succeed()


class Resource:
    """A server with ``capacity`` concurrent slots and FIFO queueing.

    ``yield from resource.use(duration)`` acquires a slot, holds it for
    ``duration`` simulated seconds, and releases it.  Total busy time is
    accumulated in :attr:`busy_time` for utilisation reporting.
    """

    def __init__(self, engine: "Engine", capacity: int = 1, name: str = "resource"):
        self.engine = engine
        self.name = name
        self.capacity = capacity
        self._sem = Semaphore(engine, capacity, name=f"{name}.slots")
        self.busy_time = 0.0
        self.service_count = 0

    @property
    def in_use(self) -> int:
        """Number of slots currently held."""
        return self.capacity - self._sem.value

    @property
    def queue_length(self) -> int:
        """Number of processes waiting for a slot."""
        return self._sem.waiting

    def acquire(self) -> Event:
        """Acquire one slot (event triggers when granted)."""
        return self._sem.acquire(1)

    def release(self) -> None:
        """Release one slot."""
        self._sem.release(1)

    def abandon(self, grant: Event) -> None:
        """Give back an :meth:`acquire` whose waiter was interrupted while
        waiting on ``grant`` (see :meth:`Semaphore.abandon`)."""
        self._sem.abandon(grant)

    def use(self, duration: float) -> Iterable[Event]:
        """Acquire, hold for ``duration``, release.  Use with ``yield from``.

        Not a generator itself.  The hold's timeout is private — nobody but
        this call could wait on it or cancel it — so when the slot is free
        with nobody queued and :meth:`Engine._run_ahead` finds that timeout
        would be the next heap entry popped, the whole charge happens here:
        the clock moves, the books are kept, and there is nothing to yield.
        """
        if not duration >= 0:  # negative, or NaN: it would poison the clock
            raise ValueError(f"duration must be >= 0 (got {duration})")
        sem = self._sem
        if (sem._value > 0 and not sem._waiters
                and self.engine._run_ahead(duration)):
            self.busy_time += duration
            self.service_count += 1
            return ()
        return self._use(duration)

    def _use(self, duration: float) -> Generator[Event, Any, None]:
        """:meth:`use` when the slot has to be waited for, or its hold
        waited out.  Once the slot is held the hold is as private as an
        uncontended one — a queued waiter is not a heap entry, and
        ``release`` grants it at the same clock and in the same order either
        way — so it is an :meth:`Engine.sleep`."""
        engine, sem = self.engine, self._sem
        # A free slot is taken here, without the grant's heap hop, when that
        # hop would be the next entry popped anyway (Engine._quiet_now); a
        # contended request queues and keeps its FIFO grant hop.
        if not (engine._quiet_now() and sem.try_acquire(1)):
            grant = sem.acquire(1)
            try:
                yield grant
            except BaseException:
                self.abandon(grant)
                raise
        try:
            if duration > 0:
                yield from engine.sleep(duration)
            self.busy_time += duration
            self.service_count += 1
        finally:
            sem.release(1)

    def utilization(self, elapsed: float | None = None) -> float:
        """Fraction of time busy, relative to ``elapsed`` (default: now)."""
        total = self.engine.now if elapsed is None else elapsed
        if total <= 0:
            return 0.0
        return min(1.0, self.busy_time / (total * self.capacity))


class Signal:
    """A broadcast condition variable (kernel ``sleep``/``wakeup``).

    Each :meth:`wait` returns a fresh event; :meth:`fire` triggers every
    event registered so far and resets the waiter list.
    """

    def __init__(self, engine: "Engine", name: str = "signal"):
        self.engine = engine
        self.name = name
        self._waiters: list[Event] = []
        self.fire_count = 0

    @property
    def waiting(self) -> int:
        """Number of events waiting for the next fire()."""
        return len(self._waiters)

    def wait(self) -> Event:
        """Return an event triggered by the next :meth:`fire`."""
        ev = Event(self.engine, name=("%s.wait", self.name))
        self._waiters.append(ev)
        return ev

    def fire(self, value: Any = None) -> int:
        """Wake all current waiters; returns how many were woken."""
        waiters, self._waiters = self._waiters, []
        for ev in waiters:
            ev.succeed(value)
        self.fire_count += 1
        return len(waiters)
