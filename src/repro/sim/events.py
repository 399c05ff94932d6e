"""Waitable events and generator-based processes.

An :class:`Event` is a one-shot occurrence that callbacks (or processes) can
wait on.  A :class:`Process` wraps a generator; every value the generator
yields must be an :class:`Event`, and the process resumes when that event
triggers.  A process is itself an event that triggers when the generator
returns, so processes can wait on each other.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sim.engine import Engine

#: Sentinel distinguishing "not yet triggered" from a ``None`` value.
_PENDING = object()


class EventFailed(Exception):
    """Raised into a process when a yielded event fails."""


class Interrupt(Exception):
    """Raised into a process by :meth:`Process.interrupt`.

    The ``cause`` attribute carries whatever the interrupter supplied.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot waitable occurrence in simulated time.

    Events start *pending*; :meth:`succeed` or :meth:`fail` triggers them.
    Callbacks registered before the trigger run (in registration order) at
    the simulated time of the trigger; callbacks registered afterwards run
    immediately (still via the event heap, preserving determinism).
    """

    __slots__ = ("engine", "_callbacks", "_value", "_failed", "_exc", "_name")

    def __init__(self, engine: "Engine", name: "str | tuple" = ""):
        self.engine = engine
        self._name = name
        self._callbacks: list[Callable[[Event], None]] | None = []
        self._value: Any = _PENDING
        self._failed = False
        self._exc: BaseException | None = None

    @property
    def name(self) -> str:
        """The event's label, for ``repr`` and error messages.

        Hot paths make hundreds of thousands of events whose name nobody
        reads, so a name may be given as a ``(format, *args)`` tuple; it is
        rendered with ``%`` here, the first time it is wanted.
        """
        name = self._name
        if type(name) is tuple:
            name = self._name = name[0] % name[1:]
        return name

    # -- state -----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed` or :meth:`fail` has been called."""
        return self._value is not _PENDING or self._failed

    @property
    def ok(self) -> bool:
        """True if the event triggered successfully."""
        return self._value is not _PENDING and not self._failed

    @property
    def value(self) -> Any:
        """The success value (raises if pending or failed)."""
        if self._failed:
            assert self._exc is not None
            raise self._exc
        if self._value is _PENDING:
            raise RuntimeError(f"event {self.name!r} has not triggered")
        return self._value

    @property
    def exception(self) -> BaseException | None:
        """The failure exception, or None."""
        return self._exc

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, delivering ``value`` to waiters."""
        if self._value is not _PENDING or self._failed:
            raise RuntimeError(f"event {self.name!r} already triggered")
        self._value = value
        self._dispatch()
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event as failed; waiters see ``exc``."""
        if self._value is not _PENDING or self._failed:
            raise RuntimeError(f"event {self.name!r} already triggered")
        self._failed = True
        self._exc = exc
        self._dispatch()
        return self

    def _dispatch(self) -> None:
        callbacks, self._callbacks = self._callbacks, None
        assert callbacks is not None
        post = self.engine._post
        for cb in callbacks:
            post(cb, self)

    # -- waiting ---------------------------------------------------------
    def add_callback(self, cb: Callable[["Event"], None]) -> None:
        """Run ``cb(event)`` when the event triggers (now, if already has)."""
        if self._callbacks is None:
            self.engine._post(cb, self)
        else:
            self._callbacks.append(cb)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending"
        if self.triggered:
            state = "failed" if self._failed else f"ok({self._value!r})"
        return f"<{type(self).__name__} {self.name!r} {state}>"


class Timeout(Event):
    """An event that triggers after a fixed simulated delay.

    ``daemon=True`` marks the heap entry as housekeeping that must not keep
    :meth:`Engine.run` alive (see Engine.schedule).  The timeout is the
    handle of its own heap entry (``daemon``/``cancelled``/``fired``, what
    :meth:`Engine.cancel` and :meth:`Engine.step` read), so the hottest
    event in the simulator costs one object, not two.
    """

    __slots__ = ("delay", "daemon", "cancelled", "fired")

    def __init__(self, engine: "Engine", delay: float, value: Any = None,
                 daemon: bool = False):
        if not delay >= 0:  # negative, or NaN: an unordered heap key
            raise ValueError(f"timeout delay must be >= 0 (got {delay})")
        super().__init__(engine, name=("timeout(%g)", delay))
        self.delay = delay
        self.daemon = daemon
        self.cancelled = False
        self.fired = False
        engine._push(delay, self._expire, value, self)

    def cancel(self) -> None:
        """Abandon the timeout: it will never trigger (no-op if it has).

        Used by races like "reply versus retransmission timer" so the loser
        does not keep the engine busy or stretch simulated time.
        """
        self.engine.cancel(self)

    def _expire(self, value: Any) -> None:
        """Trigger, and — when nothing else is due at this instant — run the
        first waiter here instead of through a heap entry that would be the
        very next one popped.  Later waiters are posted first, so they still
        run after it and before anything it posts, and while it runs the
        heap shows them due now: every elision guard inside it falls back.
        """
        engine = self.engine
        callbacks = self._callbacks
        if not callbacks or not engine._quiet_now():
            self.succeed(value)
            return
        self._value = value
        self._callbacks = None
        for cb in callbacks[1:]:
            engine._post(cb, self)
        callbacks[0](self)


ProcessGen = Generator[Event, Any, Any]


class Process(Event):
    """A running simulation process wrapping a generator.

    The process triggers (as an event) when the generator returns; the
    generator's return value becomes the event value.  An uncaught exception
    in the generator fails the process event, and — if nothing is waiting on
    the process — is re-raised by :meth:`Engine.run` so bugs do not pass
    silently.
    """

    __slots__ = ("_gen", "_waiting_on", "_started")

    def __init__(self, engine: "Engine", gen: ProcessGen, name: str = ""):
        super().__init__(engine, name=name or getattr(gen, "__name__", "process"))
        self._gen = gen
        self._waiting_on: Event | None = None
        self._started = False
        engine._post(self._resume, None)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The event the process was waiting on is abandoned (its trigger will
        be ignored by this process).
        """
        if self.triggered:
            return
        self._waiting_on = None
        self.engine._post(self._throw, Interrupt(cause))

    # -- internal --------------------------------------------------------
    def _resume(self, event: Event | None) -> None:
        if self._value is not _PENDING or self._failed:
            return
        if event is None:
            value = None
        elif event is not self._waiting_on:
            return  # stale wakeup from an abandoned wait (after interrupt)
        elif event._failed or event._value is _PENDING:
            exc = event._exc
            assert exc is not None
            self._waiting_on = None
            self._step(self._gen.throw, EventFailed(exc))
            return
        else:
            value = event._value if self._started else None
        self._waiting_on = None
        self._started = True
        self._step(self._gen.send, value)

    def _throw(self, exc: BaseException) -> None:
        if self._value is not _PENDING or self._failed:
            return
        self._step(self._gen.throw, exc)

    def _step(self, advance: Callable[[Any], Any], arg: Any) -> None:
        """Run the generator to its next yield via ``advance(arg)``
        (its ``send`` with a value, or its ``throw`` with an exception)."""
        try:
            target = advance(arg)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - must capture process crash
            orphan = not self._callbacks  # nobody waiting on this process
            self.fail(exc)
            if orphan:
                self.engine._process_crashed(self, exc)
            return
        if not isinstance(target, Event):
            exc = TypeError(
                f"process {self.name!r} yielded {target!r}; processes must yield Event"
            )
            orphan = not self._callbacks
            self.fail(exc)
            if orphan:
                self.engine._process_crashed(self, exc)
            return
        self._waiting_on = target
        target.add_callback(self._resume)


class AnyOf(Event):
    """Triggers when the first of ``events`` triggers.

    The value is the event that won.  A failure of any constituent fails the
    AnyOf.
    """

    __slots__ = ()

    def __init__(self, engine: "Engine", events: Iterable[Event]):
        super().__init__(engine, name="any_of")
        for ev in events:
            ev.add_callback(self._on_child)

    def _on_child(self, ev: Event) -> None:
        if self.triggered:
            return
        if ev.ok:
            self.succeed(ev)
        else:
            assert ev.exception is not None
            self.fail(ev.exception)


class AllOf(Event):
    """Triggers when all of ``events`` have triggered.

    The value is the list of events, in the order supplied.  The first
    failure fails the AllOf immediately.
    """

    __slots__ = ("_events", "_remaining")

    def __init__(self, engine: "Engine", events: Iterable[Event]):
        super().__init__(engine, name="all_of")
        self._events = list(events)
        self._remaining = len(self._events)
        if self._remaining == 0:
            engine._post(lambda _: self.succeed([]), None)
            return
        for ev in self._events:
            ev.add_callback(self._on_child)

    def _on_child(self, ev: Event) -> None:
        if self.triggered:
            return
        if not ev.ok:
            assert ev.exception is not None
            self.fail(ev.exception)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed(list(self._events))
