"""The deterministic discrete-event engine.

The engine owns simulated time and an event heap of
``(time, seq, fn, arg, handle)`` entries.  Everything in the simulation —
timeouts, event callbacks, process resumptions, disk interrupts — flows
through this single heap, so runs are fully deterministic for a given seed
and workload.

``handle`` carries the ``daemon``/``cancelled``/``fired`` flags of an entry
somebody may cancel — a :class:`Scheduled` for recurring timers and public
:meth:`Engine.schedule` callers, the :class:`~repro.sim.events.Timeout`
itself for a timeout — and is ``None`` for the engine's own zero-delay posts
(event callbacks, process starts), which nobody can.  All shapes draw ``seq``
from one counter, so ``(time, seq)`` — the order callbacks run in — does not
depend on which shape an entry has.

A hop may be skipped only when its entry would be the very next one popped
(DESIGN.md §5.2): a zero-delay one — its callback run by the step that would
have pushed it — under :meth:`Engine._quiet_now`, a timed one nobody but its
creator can see (:meth:`Engine.sleep`, the hold of a ``Resource.use``) — the
clock moved in place — under :meth:`Engine._run_ahead`.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from math import inf
from typing import Any, Callable

from repro.sim.events import Process, ProcessGen, Timeout


class SimulationError(RuntimeError):
    """Raised when the simulation itself is misused (not a modelled failure)."""


class Scheduled:
    """A handle to one heap entry, so callers can cancel it.

    A cancelled entry is skipped silently when it reaches the top of the
    heap — in particular it does *not* advance simulated time, which is what
    lets retransmission timers be abandoned the moment a reply arrives
    without leaving a dead-time tail at the end of the run.
    """

    __slots__ = ("daemon", "cancelled", "fired")

    def __init__(self, daemon: bool):
        self.daemon = daemon
        self.cancelled = False
        self.fired = False


class Recurring:
    """A cancelable recurring timer created by :meth:`Engine.every`.

    The next occurrence is scheduled *before* the callback runs, so the
    callback may cancel the timer (or raise) without leaving a stray
    entry behind; ``fires`` counts completed callbacks.
    """

    __slots__ = ("engine", "interval", "fn", "daemon", "cancelled", "fires",
                 "_entry")

    def __init__(self, engine: "Engine", interval: float,
                 fn: Callable[[], None], daemon: bool):
        if interval <= 0:
            raise SimulationError(f"recurring interval must be > 0 "
                                  f"(got {interval})")
        self.engine = engine
        self.interval = interval
        self.fn = fn
        self.daemon = daemon
        self.cancelled = False
        self.fires = 0
        self._entry = engine.schedule(interval, self._fire, daemon=daemon)

    def _fire(self, _arg: Any) -> None:
        if self.cancelled:
            return
        self._entry = self.engine.schedule(self.interval, self._fire,
                                           daemon=self.daemon)
        self.fires += 1
        self.fn()

    def cancel(self) -> None:
        """Stop the timer; the pending occurrence is cancelled too."""
        if self.cancelled:
            return
        self.cancelled = True
        self.engine.cancel(self._entry)


class Engine:
    """A discrete-event simulation engine with generator-based processes.

    Example
    -------
    >>> eng = Engine()
    >>> def hello():
    ...     yield eng.timeout(1.5)
    ...     return "done"
    >>> proc = eng.process(hello())
    >>> eng.run()
    >>> eng.now, proc.value
    (1.5, 'done')
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list[tuple[float, int, Callable[[Any], None], Any,
                               "Scheduled | None"]] = []
        self._seq = count()
        self._live = 0  # non-daemon heap entries
        self._crashed: list[tuple[Process, BaseException]] = []
        self._running = False
        #: Where the :meth:`run` in progress stops the clock; nothing to stop
        #: at under ``run()`` or a bare :meth:`step`.
        self._until = inf
        self._steps = 0
        #: Buf ids are allocated here (one counter per simulated world, not
        #: per process) so same-seed runs number their bufs identically and
        #: trace exports compare byte-for-byte across runs.
        self.buf_ids = count(1)

    # -- time ------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- scheduling primitives --------------------------------------------
    def schedule(self, delay: float, fn: Callable[[Any], None], arg: Any = None,
                 daemon: bool = False) -> Scheduled:
        """Schedule ``fn(arg)`` to run ``delay`` seconds from now.

        ``daemon=True`` marks an entry that must not keep the simulation
        alive: :meth:`run` stops once only daemon entries remain (so
        periodic background services like update(8) don't make run-to-idle
        spin forever).

        Returns a :class:`Scheduled` handle accepted by :meth:`cancel`.
        """
        if not delay >= 0:  # negative, or NaN: an unordered heap key
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        entry = Scheduled(daemon)
        self._push(delay, fn, arg, entry)
        return entry

    def _push(self, delay: float, fn: Callable[[Any], None], arg: Any,
              handle: Any) -> None:
        """Push ``fn(arg)`` under a caller-made ``handle``: any object with
        ``daemon``, ``cancelled`` and ``fired`` attributes (a
        :class:`Scheduled`, or a ``Timeout`` standing in for its own)."""
        heappush(self._heap, (self._now + delay, next(self._seq), fn, arg, handle))
        if not handle.daemon:
            self._live += 1

    def _post(self, fn: Callable[[Any], None], arg: Any) -> None:
        """Run ``fn(arg)`` at the current time, after everything already
        due now: :meth:`schedule` with no delay and no handle to cancel."""
        heappush(self._heap, (self._now, next(self._seq), fn, arg, None))
        self._live += 1

    def _quiet_now(self) -> bool:
        """True when no heap entry is due at the current instant.

        The one condition under which a zero-delay hop may be elided: an
        entry pushed now would be the next one popped, so running its
        callback in the current step changes neither the order callback
        bodies run in nor the clock they see.  A cancelled entry due now
        counts as due — falling back is always safe.
        """
        heap = self._heap
        return not heap or heap[0][0] > self._now

    def _run_ahead(self, delay: float) -> bool:
        """Advance the clock by ``delay`` in place of a private timeout,
        if that timeout would be the very next entry popped.

        :meth:`_quiet_now` stretched from an instant to an interval: for a
        timeout armed now that only its creator can wait on or cancel, no
        callback can run, cancel it or read the clock before it expires
        when every heap entry is *strictly* later than ``now + delay`` — one
        at ``now + delay`` was pushed earlier and wins the tie on ``seq``; a
        cancelled one counts, as falling back is always safe — and the
        :meth:`run` in progress does not stop short of it.  Returns False,
        the clock untouched, when the hop has to be taken.
        """
        end = self._now + delay
        heap = self._heap
        if end > self._until or (heap and heap[0][0] <= end):
            return False
        self._now = end
        return True

    def cancel(self, entry: "Scheduled | Timeout") -> None:
        """Cancel a scheduled entry; a no-op if already cancelled or fired.

        The heap slot stays behind but is skipped (without advancing time)
        when popped, and stops counting toward run-to-idle liveness.

        An entry that already fired has left the heap and settled its
        liveness accounting in :meth:`step`; cancelling it then must not
        decrement ``_live`` a second time (that would make run-to-idle stop
        with work still pending).
        """
        if entry.cancelled or entry.fired:
            return
        entry.cancelled = True
        if not entry.daemon:
            entry.daemon = True  # stop counting toward liveness exactly once
            self._live -= 1

    def every(self, interval: float, fn: Callable[[], None],
              daemon: bool = True) -> Recurring:
        """Run ``fn()`` every ``interval`` simulated seconds until cancelled.

        The telemetry sampler's clock: ``daemon=True`` (the default) keeps
        the timer from holding :meth:`run` open on its own, so a workload
        still runs to idle; the pending occurrence simply fires during the
        next burst of real work.  Returns a :class:`Recurring` handle with
        ``cancel()``.
        """
        return Recurring(self, interval, fn, daemon)

    def timeout(self, delay: float, value: Any = None,
                daemon: bool = False) -> Timeout:
        """An event that triggers ``delay`` seconds from now.

        A ``daemon`` timeout does not keep :meth:`run` alive on its own.
        """
        return Timeout(self, delay, value, daemon=daemon)

    def sleep(self, delay: float) -> "tuple[Timeout, ...]":
        """Let ``delay`` seconds pass: ``yield from engine.sleep(delay)``.

        The private timeout of DESIGN.md §5.2 — made, waited on once and
        dropped, so nobody but the caller could wait on it or cancel it.
        Returns ``()`` with the clock already moved when :meth:`_run_ahead`
        finds it would be the next entry popped, and the one
        :class:`Timeout` to wait out otherwise.  It carries no value, so a
        tuple will do for ``yield from``: the resume's ``send(None)`` is
        ``next``, and an interrupt thrown in surfaces at the caller's
        ``yield from``.  Never a daemon: a daemon entry does not hold
        :meth:`run` open, a moved clock would have.
        """
        if not delay >= 0:
            raise ValueError(f"sleep delay must be >= 0 (got {delay})")
        if self._run_ahead(delay):
            return ()
        return (Timeout(self, delay),)

    def process(self, gen: ProcessGen, name: str = "") -> Process:
        """Spawn a process from a generator; it starts at the current time."""
        return Process(self, gen, name=name)

    # -- execution ---------------------------------------------------------
    def step(self) -> bool:
        """Run the single next scheduled callback.  Returns False if idle.

        Cancelled entries are discarded without running or advancing time.
        """
        heap = self._heap
        while heap:
            when, _, fn, arg, entry = heappop(heap)
            if entry is None:
                self._live -= 1
            elif entry.cancelled:
                continue
            else:
                entry.fired = True
                if not entry.daemon:
                    self._live -= 1
            assert when >= self._now, "event heap went backwards"
            self._now = when
            fn(arg)
            self._steps += 1
            return True
        return False

    def live_pending(self) -> int:
        """Non-cancelled, non-daemon entries still in the heap.

        The run-to-idle invariant is ``self._live == self.live_pending()``
        at every step boundary; the sanitizer's liveness check asserts it.
        """
        return sum(
            1 for entry in self._heap
            if entry[4] is None or not (entry[4].cancelled or entry[4].daemon)
        )

    def run(self, until: float | None = None) -> None:
        """Run until the heap drains or simulated time reaches ``until``
        (which may not lie in the past: the clock never runs backwards).

        If a process crashed with an uncaught exception and nothing was
        waiting on it, the exception is re-raised here — errors should never
        pass silently.
        """
        if self._running:
            raise SimulationError("run() called re-entrantly")
        if until is not None:
            if until < self._now:
                raise SimulationError(f"cannot run into the past "
                                      f"(until={until}, now={self._now})")
            self._until = until
        self._running = True
        try:
            heap = self._heap
            while heap:
                if until is None:
                    if self._live == 0:
                        break  # only daemon housekeeping left: we are idle
                else:
                    when, _, _, _, entry = heap[0]
                    if entry is not None and entry.cancelled:
                        # step() would skip this corpse and run whatever
                        # is behind it, however far past ``until`` that is.
                        heappop(heap)
                        continue
                    if when > until:
                        self._now = until
                        break
                self.step()
                if self._crashed:
                    proc, exc = self._crashed[0]
                    self._crashed.clear()
                    raise SimulationError(
                        f"process {proc.name!r} crashed at t={self._now:.6f}"
                    ) from exc
            else:
                if until is not None and until > self._now:
                    self._now = until
        finally:
            self._running = False
            self._until = inf

    def run_process(self, gen: ProcessGen, name: str = "") -> Any:
        """Spawn ``gen``, run to completion, and return its result.

        A failure in the process re-raises its original exception here, so
        modelled errors (ENOSPC and friends) reach the caller untouched.
        """
        proc = self.process(gen, name=name)
        proc.add_callback(lambda _event: None)  # claim the crash, if any
        self.run()
        if not proc.triggered:
            raise SimulationError(f"process {proc.name!r} deadlocked (heap drained)")
        return proc.value

    # -- internal ----------------------------------------------------------
    def _process_crashed(self, proc: Process, exc: BaseException) -> None:
        # Called for crashes with no waiter; run() re-raises these so that
        # a buggy daemon process cannot fail silently.
        self._crashed.append((proc, exc))
