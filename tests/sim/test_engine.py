"""Tests for the discrete-event engine and process model."""

import pytest

from repro.sim import Engine, Resource, SimulationError


def test_time_starts_at_zero():
    eng = Engine()
    assert eng.now == 0.0


def test_timeout_advances_time():
    eng = Engine()

    def proc():
        yield eng.timeout(2.5)
        return eng.now

    result = eng.run_process(proc())
    assert result == 2.5
    assert eng.now == 2.5


def test_events_fire_in_time_order():
    eng = Engine()
    order = []

    for delay in (3.0, 1.0, 2.0):
        eng.schedule(delay, lambda d: order.append(d), delay)
    eng.run()
    assert order == [1.0, 2.0, 3.0]


def test_same_time_events_fire_in_schedule_order():
    eng = Engine()
    order = []
    for i in range(5):
        eng.schedule(1.0, order.append, i)
    eng.run()
    assert order == [0, 1, 2, 3, 4]


def test_run_until_stops_early():
    eng = Engine()
    fired = []
    eng.schedule(1.0, fired.append, "a")
    eng.schedule(5.0, fired.append, "b")
    eng.run(until=2.0)
    assert fired == ["a"]
    assert eng.now == 2.0
    eng.run()
    assert fired == ["a", "b"]


def test_run_until_advances_time_even_when_idle():
    eng = Engine()
    eng.run(until=7.0)
    assert eng.now == 7.0


def test_run_until_in_the_past_is_rejected_and_leaves_the_clock_alone():
    eng = Engine()
    fired = []
    eng.schedule(10.0, fired.append, "late")
    eng.run(until=5.0)
    with pytest.raises(SimulationError, match="into the past"):
        eng.run(until=3.0)  # used to set now = 3: the clock ran backwards
    assert eng.now == 5.0
    eng.run(until=5.0)  # the present is not the past
    eng.run()           # and a refused run leaves the engine runnable
    assert (eng.now, fired) == (10.0, ["late"])


def test_negative_delay_rejected():
    eng = Engine()
    with pytest.raises(SimulationError):
        eng.schedule(-1.0, lambda _: None)


@pytest.mark.parametrize("call", ["timeout", "schedule", "sleep", "use"])
def test_nan_and_negative_delays_raise_at_the_call_naming_the_value(call):
    # NaN passes ``delay < 0``.  ``use`` and ``sleep`` then set ``now = nan``,
    # ``timeout`` and ``schedule`` pushed an unordered heap key; either way it
    # surfaced a step later, far from the call, as a bare "event heap went
    # backwards" assert (and not at all under ``python -O``).
    eng = Engine()
    make = {"timeout": eng.timeout,
            "schedule": lambda delay: eng.schedule(delay, lambda _: None),
            "sleep": eng.sleep,
            "use": Resource(eng).use}[call]
    for bad in (float("nan"), -1):
        with pytest.raises((ValueError, SimulationError), match=f"{bad}\\)$"):
            make(bad)
    assert eng.now == 0 and not eng._heap
    make(-0.0)  # minus zero is zero, not the past
    eng.run()
    assert eng.now == 0


def test_process_return_value():
    eng = Engine()

    def proc():
        yield eng.timeout(1)
        return 42

    assert eng.run_process(proc()) == 42


def test_nested_processes_wait_on_each_other():
    eng = Engine()

    def child():
        yield eng.timeout(3)
        return "child-done"

    def parent():
        result = yield eng.process(child())
        return result, eng.now

    assert eng.run_process(parent()) == ("child-done", 3)


def test_orphan_process_crash_surfaces_in_run():
    eng = Engine()

    def bad():
        yield eng.timeout(1)
        raise ValueError("boom")

    eng.process(bad())
    with pytest.raises(SimulationError) as excinfo:
        eng.run()
    assert isinstance(excinfo.value.__cause__, ValueError)


def test_waited_on_crash_propagates_to_waiter_not_run():
    eng = Engine()

    def bad():
        yield eng.timeout(1)
        raise ValueError("boom")

    def parent():
        from repro.sim import EventFailed

        try:
            yield eng.process(bad())
        except EventFailed:
            return "caught"
        return "not-caught"

    assert eng.run_process(parent()) == "caught"


def test_yielding_non_event_is_an_error():
    eng = Engine()

    def bad():
        yield 42

    eng.process(bad())
    with pytest.raises(SimulationError):
        eng.run()


def test_deadlock_detected_by_run_process():
    eng = Engine()

    def stuck():
        yield eng.event()  # never triggered

    with pytest.raises(SimulationError, match="deadlock"):
        eng.run_process(stuck())


def test_interrupt_wakes_process_early():
    eng = Engine()
    from repro.sim import Interrupt

    def sleeper():
        try:
            yield eng.timeout(100)
        except Interrupt as intr:
            return ("interrupted", intr.cause, eng.now)
        return "slept"

    proc = eng.process(sleeper())

    def interrupter():
        yield eng.timeout(2)
        proc.interrupt(cause="wakeup")

    eng.process(interrupter())
    eng.run()
    assert proc.value == ("interrupted", "wakeup", 2)


def test_interrupt_after_completion_is_noop():
    eng = Engine()

    def quick():
        yield eng.timeout(1)
        return "ok"

    proc = eng.process(quick())
    eng.run()
    proc.interrupt()
    eng.run()
    assert proc.value == "ok"


def test_stale_wakeup_after_interrupt_ignored():
    """The abandoned timeout firing later must not resume the process twice."""
    eng = Engine()
    from repro.sim import Interrupt

    resumed = []

    def sleeper():
        try:
            yield eng.timeout(10)
        except Interrupt:
            pass
        resumed.append(eng.now)
        yield eng.timeout(50)
        resumed.append(eng.now)

    proc = eng.process(sleeper())

    def interrupter():
        yield eng.timeout(2)
        proc.interrupt()

    eng.process(interrupter())
    eng.run()
    assert resumed == [2, 52]


def test_event_value_delivered_to_process():
    eng = Engine()
    ev = eng.event()

    def waiter():
        value = yield ev
        return value

    proc = eng.process(waiter())
    eng.schedule(1.0, lambda _: ev.succeed("payload"))
    eng.run()
    assert proc.value == "payload"


def test_event_double_trigger_rejected():
    eng = Engine()
    ev = eng.event()
    ev.succeed(1)
    with pytest.raises(RuntimeError):
        ev.succeed(2)


def test_callback_added_after_trigger_still_runs():
    eng = Engine()
    ev = eng.event()
    ev.succeed("late")
    got = []
    ev.add_callback(lambda e: got.append(e.value))
    eng.run()
    assert got == ["late"]


def test_anyof_returns_first_winner():
    eng = Engine()
    from repro.sim import AnyOf

    def proc():
        t_fast = eng.timeout(1, "fast")
        t_slow = eng.timeout(5, "slow")
        winner = yield AnyOf(eng, [t_fast, t_slow])
        return winner.value, eng.now

    assert eng.run_process(proc()) == ("fast", 1)


def test_allof_waits_for_all():
    eng = Engine()
    from repro.sim import AllOf

    def proc():
        events = [eng.timeout(d, d) for d in (3, 1, 2)]
        done = yield AllOf(eng, events)  # value is the list of events
        return [e.value for e in done], eng.now

    values, now = eng.run_process(proc())
    assert values == [3, 1, 2]
    assert now == 3


def test_allof_empty_triggers_immediately():
    eng = Engine()
    from repro.sim import AllOf

    def proc():
        result = yield AllOf(eng, [])
        return result

    assert eng.run_process(proc()) == []


def test_reentrant_run_rejected():
    eng = Engine()

    def meddler(_):
        eng.run()

    eng.schedule(1.0, meddler)
    with pytest.raises(SimulationError):
        eng.run()


# -- recurring timers (Engine.every) ------------------------------------------

def test_every_fires_at_interval_multiples():
    eng = Engine()
    ticks = []
    timer = eng.every(0.010, lambda: ticks.append(eng.now))

    def anchor():
        yield eng.timeout(0.035)

    eng.run_process(anchor())
    assert ticks == pytest.approx([0.010, 0.020, 0.030])
    assert timer.fires == 3


def test_every_daemon_never_keeps_run_alive():
    eng = Engine()
    eng.every(0.010, lambda: None)
    eng.run()
    assert eng.now == 0.0


def test_every_non_daemon_needs_cancel():
    eng = Engine()
    ticks = []

    def tick():
        ticks.append(eng.now)
        if len(ticks) == 3:
            timer.cancel()

    timer = eng.every(0.010, tick, daemon=False)
    eng.run()
    assert len(ticks) == 3
    assert eng.now == pytest.approx(0.030)


def test_every_cancel_stops_future_fires():
    eng = Engine()
    ticks = []
    timer = eng.every(0.010, lambda: ticks.append(eng.now))

    def anchor():
        yield eng.timeout(0.025)
        timer.cancel()
        yield eng.timeout(0.050)

    eng.run_process(anchor())
    assert len(ticks) == 2
    timer.cancel()  # idempotent


def test_every_rejects_bad_interval():
    eng = Engine()
    with pytest.raises(SimulationError):
        eng.every(0.0, lambda: None)
