"""The hop-eliding engine against one that takes every hop (DESIGN.md §5.2).

``Timeout._expire`` runs its first waiter, and an uncontended
``Resource.use`` takes its slot, in the step that would otherwise have
pushed a heap entry for it — but only when nothing else is due at that
instant, so that entry would have been the next one popped.  A ``use`` whose
hold would *also* be the next entry popped — slot free, every heap entry
strictly later than its end, and that end not past the ``run(until=)`` in
progress — takes no hop at all: the clock moves in place.  The rule this
file pins: callback bodies run in the same order and see the same clock as
on an engine with no elision at all, and a ``run(until=T)`` stops both at
``T`` with the same charges booked.  ``Engine.sleep`` is that same private
timeout under its own name, for every wait made and yielded in one breath —
the hold of a ``use`` that had to queue for its slot included.

``RefEngine`` is that engine, kept here and not in ``src/``: ``Timeout.
_expire`` and ``Resource.use`` as they were before any elision (``use`` with
the abandoned-waiter fix, which changes behaviour on purpose and is pinned
in ``test_resources.py``), and a ``sleep`` that always hands back its
timeout.  Random programs must log the same ``(now, process, label)``
sequence on both, through the same ``run(until=)`` stops; the hand cases
below name the orders the guards exist for, and each fails under one of:
guard removed from the timeout path, guard removed from the acquire path,
waiters dispatched in reverse, every waiter run inline, ``<`` for ``<=`` in
the run-ahead horizon, its ``until`` bound dropped (in ``_run_ahead``, or by
a ``sleep`` that moves the clock without asking it), its free-slot test
dropped, ``busy_time`` not booked when it runs ahead, ``_use`` sleeping its
hold out before it holds the slot.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu import Cpu
from repro.sim import (AllOf, AnyOf, Engine, Event, EventFailed, Interrupt,
                       Resource, Semaphore, Signal, Timeout)


# -- the reference: every hop taken ------------------------------------------

class RefTimeout(Timeout):
    def _expire(self, value):
        self.succeed(value)


class RefResource(Resource):
    def use(self, duration):
        if duration < 0:
            raise ValueError("duration must be >= 0")
        grant = self._sem.acquire(1)
        try:
            yield grant
        except BaseException:
            self._sem.abandon(grant)
            raise
        try:
            if duration > 0:
                yield self.engine.timeout(duration)
            self.busy_time += duration
            self.service_count += 1
        finally:
            self._sem.release(1)


class RefEngine(Engine):
    def timeout(self, delay, value=None, daemon=False):
        return RefTimeout(self, delay, value, daemon=daemon)

    def sleep(self, delay):
        return (self.timeout(delay),)


def make_resource(eng, **kwargs):
    """A resource of the kind that goes with ``eng``."""
    cls = RefResource if isinstance(eng, RefEngine) else Resource
    return cls(eng, **kwargs)


def drain(eng, max_steps=20_000):
    """Run to idle one step at a time, checking the liveness count at every
    step boundary; returns the number of steps taken."""
    steps = 0
    while eng._heap and eng._live:
        assert eng.step()
        assert eng._live == eng.live_pending()
        assert not eng._crashed, eng._crashed
        steps += 1
        assert steps < max_steps
    return steps


# -- random programs -----------------------------------------------------------

DELAYS = st.sampled_from([0, 0.5, 1, 1, 1.5, 2])
SMALL = st.integers(0, 1)
PID = st.integers(0, 4)

OPS = st.one_of(
    st.tuples(st.just("sleep"), DELAYS),
    st.tuples(st.just("timeout"), DELAYS),
    st.tuples(st.just("daemon_sleep"), DELAYS),
    st.tuples(st.just("shared_sleep"), SMALL, DELAYS),
    st.tuples(st.just("use"), SMALL, DELAYS),
    st.tuples(st.just("work"), SMALL, DELAYS),
    st.tuples(st.just("acquire"), SMALL, st.integers(1, 2)),
    st.tuples(st.just("release"), SMALL, st.integers(1, 2)),
    st.tuples(st.just("wait"), SMALL),
    st.tuples(st.just("fire"), SMALL),
    st.tuples(st.just("race"), DELAYS, DELAYS),
    st.tuples(st.just("all"), DELAYS, DELAYS),
    st.tuples(st.just("wait_event"), st.integers(0, 2)),
    st.tuples(st.just("trigger_at"), st.integers(0, 2), DELAYS, st.booleans()),
    st.tuples(st.just("interrupt"), PID),
    st.tuples(st.just("join"), PID),
    st.tuples(st.just("every"), st.sampled_from([0.5, 1]), st.integers(1, 3),
              st.booleans()),
)
PROGRAMS = st.lists(st.lists(OPS, max_size=8), min_size=1, max_size=5)
#: Gaps between successive ``run(until=)`` stops: the delay grid, so a stop
#: lands on an expiry or between two, plus a quarter to land off the grid.
STOP_GAPS = st.lists(st.sampled_from([0, 0.25, 0.5, 1, 1.5, 2]), max_size=6)


class World:
    """One engine plus the shared objects the programs' ops name by index."""

    def __init__(self, eng, programs):
        self.eng = eng
        self.log = []
        self.resources = [make_resource(eng, capacity=1), make_resource(eng, capacity=2)]
        self.cpus = [Cpu(eng), Cpu(eng, ncpus=2)]
        for cpu in self.cpus:
            cpu.resource = make_resource(eng, capacity=cpu.resource.capacity,
                                         name="cpu")
        self.sems = [Semaphore(eng, 0), Semaphore(eng, 1)]
        self.signals = [Signal(eng), Signal(eng)]
        self.events = [Event(eng, name=f"e{i}") for i in range(3)]
        self.timers = [None, None]
        self.procs = [eng.process(self.body(pid, ops), name=f"p{pid}")
                      for pid, ops in enumerate(programs)]

    def note(self, who, label):
        self.log.append((self.eng.now, who, label))

    def body(self, pid, ops):
        for index, op in enumerate(ops):
            try:
                yield from getattr(self, "op_" + op[0])(pid, *op[1:])
                self.note(pid, f"{index}:{op[0]}")
            except Interrupt:
                self.note(pid, f"{index}:interrupted")
            except EventFailed:
                self.note(pid, f"{index}:failed")

    def op_sleep(self, pid, delay):
        yield from self.eng.sleep(delay)

    def op_timeout(self, pid, delay):
        yield self.eng.timeout(delay)

    def op_daemon_sleep(self, pid, delay):
        yield self.eng.timeout(delay, daemon=True)

    def op_shared_sleep(self, pid, which, delay):
        # Several processes on one Timeout: whoever finds none pending arms it.
        timer = self.timers[which]
        if timer is None or timer.triggered:
            timer = self.timers[which] = self.eng.timeout(delay)
        yield timer

    def op_use(self, pid, which, delay):
        yield from self.resources[which].use(delay)

    def op_work(self, pid, which, delay):
        yield from self.cpus[which].work("op", delay)

    def op_acquire(self, pid, which, n):
        yield self.sems[which].acquire(n)

    def op_release(self, pid, which, n):
        self.sems[which].release(n)
        yield from ()

    def op_wait(self, pid, which):
        yield self.signals[which].wait()

    def op_fire(self, pid, which):
        self.signals[which].fire()
        yield from ()

    def op_race(self, pid, first, second):
        timers = [self.eng.timeout(first), self.eng.timeout(second)]
        winner = yield AnyOf(self.eng, timers)
        for timer in timers:
            if timer is not winner:
                timer.cancel()
        self.note(pid, f"won:{timers.index(winner)}")

    def op_all(self, pid, first, second):
        yield AllOf(self.eng, [self.eng.timeout(first), self.eng.timeout(second)])

    def op_wait_event(self, pid, which):
        yield self.events[which]

    def op_trigger_at(self, pid, which, delay, fail):
        event = self.events[which]

        def trigger(_):
            self.note("cb", f"trigger:{which}")
            if not event.triggered:
                if fail:
                    event.fail(ValueError(which))
                else:
                    event.succeed()

        self.eng.schedule(delay, trigger)
        yield from ()

    def op_interrupt(self, pid, target):
        if target < len(self.procs):
            self.procs[target].interrupt()
        yield from ()

    def op_join(self, pid, target):
        if target < len(self.procs) and target != pid:
            yield self.procs[target]

    def op_every(self, pid, interval, fires, daemon):
        def tick():
            self.note("tick", f"{pid}:{timer.fires}")
            if timer.fires == fires:
                timer.cancel()

        timer = self.eng.every(interval, tick, daemon=daemon)
        yield from ()

    def charges(self):
        return [(r.busy_time, r.service_count, r.in_use, r.queue_length)
                for r in self.resources + [cpu.resource for cpu in self.cpus]]

    def final_state(self):
        return (
            self.eng.now,
            self.charges(),
            [cpu.breakdown() for cpu in self.cpus],
            [(s.value, s.waiting) for s in self.sems],
            [(g.waiting, g.fire_count) for g in self.signals],
            [p.triggered for p in self.procs],
        )


def run_programs(engine_cls, programs, stop_gaps=()):
    """Run through each ``run(until=)`` stop, then to idle; returns the log,
    what every stop saw, the final state and the steps taken."""
    world = World(engine_cls(), programs)
    eng = world.eng
    stops = []
    until = 0
    for gap in stop_gaps:
        until += gap
        eng.run(until=until)
        assert eng.now == until
        assert eng._live == eng.live_pending()
        stops.append((len(world.log), world.charges()))
    drain(eng)
    return world.log, stops, world.final_state(), eng._steps


@settings(max_examples=300, deadline=None)
@given(PROGRAMS, STOP_GAPS)
def test_random_programs_log_the_same_on_both_engines(programs, stop_gaps):
    ref_log, ref_stops, ref_state, ref_steps = run_programs(
        RefEngine, programs, stop_gaps)
    log, stops, state, steps = run_programs(Engine, programs, stop_gaps)
    assert log == ref_log
    assert stops == ref_stops
    assert state == ref_state
    assert steps <= ref_steps


# -- hand cases ------------------------------------------------------------------

def both(scenario):
    """Run ``scenario(eng, note)`` on both engines; return (lean, ref) as
    ``(log, steps)`` pairs after checking the logs agree."""
    results = []
    for engine_cls in (Engine, RefEngine):
        eng = engine_cls()
        log = []
        scenario(eng, lambda label: log.append((eng.now, label)))
        results.append((log, drain(eng)))
    assert results[0][0] == results[1][0]
    return results


def test_same_instant_timeouts_and_a_zero_delay_post_run_in_time_seq_order():
    def scenario(eng, note):
        def sleeper(tag, delay):
            yield eng.timeout(delay)
            note(tag)

        def poster():
            yield eng.timeout(1)
            Event(eng).succeed().add_callback(lambda _: note("post"))
            note("c")

        eng.process(sleeper("a", 1))
        eng.process(sleeper("b", 1))
        eng.process(poster())

    (log, _), _ = both(scenario)
    assert log == [(1, "a"), (1, "b"), (1, "c"), (1, "post")]


def test_expiry_posts_its_waiter_while_another_entry_is_due():
    def scenario(eng, note):
        def sleeper(tag):
            yield eng.timeout(1)
            note(tag)

        eng.process(sleeper("a"))
        eng.process(sleeper("b"))

    (log, steps), (_, ref_steps) = both(scenario)
    assert log == [(1, "a"), (1, "b")]
    # a's expiry sees b's timeout due and posts; b's sees that post and posts
    # too: no hop saved, two process starts + two expiries + two resumes.
    assert steps == ref_steps == 6


def test_lone_expiry_resumes_its_waiter_in_the_same_step():
    def scenario(eng, note):
        def sleeper():
            yield eng.timeout(1)
            note("a")
            yield eng.timeout(1)
            note("b")

        eng.process(sleeper())

    (log, steps), (_, ref_steps) = both(scenario)
    assert log == [(1, "a"), (2, "b")]
    assert (steps, ref_steps) == (3, 5)


def test_event_triggered_by_a_scheduled_callback_as_a_timeout_expires():
    # At t=1 the schedule() callback runs first and posts e's waiter; the
    # timeout expiring next must queue its own waiter behind that post.
    def scenario(eng, note):
        gate = Event(eng, name="gate")

        def on_gate():
            yield gate
            note("gate waiter")

        def on_timer():
            yield eng.timeout(1)
            note("timer waiter")

        eng.process(on_gate())
        eng.schedule(1, lambda _: gate.succeed())
        eng.process(on_timer())

    (log, _), _ = both(scenario)
    assert log == [(1, "gate waiter"), (1, "timer waiter")]


def test_later_waiters_of_one_timeout_run_before_what_the_first_one_posts():
    def scenario(eng, note):
        timer = eng.timeout(1)
        res = make_resource(eng, capacity=2)

        def first():
            yield timer
            note("first")
            yield from res.use(1)  # second is still due: keeps its hop
            note("first done")

        def later(tag):
            yield timer
            note(tag)
            yield eng.timeout(1)
            note(tag + " done")

        eng.process(first())
        eng.process(later("second"))
        eng.process(later("third"))

    (log, _), _ = both(scenario)
    assert log == [(1, "first"), (1, "second"), (1, "third"),
                   (2, "second done"), (2, "third done"), (2, "first done")]


def test_charge_behind_a_wakeup_it_posted_keeps_its_acquire_hop():
    def scenario(eng, note):
        res = make_resource(eng, capacity=1)
        sig = Signal(eng)

        def sleeper():
            yield sig.wait()
            yield eng.timeout(1)
            note("sleeper")

        def charger():
            yield eng.timeout(1)
            sig.fire()          # sleeper's resume is now due ...
            yield from res.use(1)  # ... so this timeout is armed after its
            note("charger")

        eng.process(sleeper())
        eng.process(charger())

    (log, _), _ = both(scenario)
    assert log == [(2, "sleeper"), (2, "charger")]


def test_uncontended_charge_is_one_step_contended_two_and_fifo():
    def charges(users, each):
        def scenario(eng, note):
            cpu = Cpu(eng)
            cpu.resource = make_resource(eng, capacity=1, name="cpu")

            def user(tag):
                for _ in range(each):
                    yield from cpu.work(tag, 0.5)
                    note(tag)

            for tag in users:
                eng.process(user(tag))
        return scenario

    (log, steps), (_, ref_steps) = both(charges("a", each=3))
    assert log == [(0.5, "a"), (1.0, "a"), (1.5, "a")]
    # The process start and nothing per charge — each runs the clock ahead
    # inside that one step — against acquire hop + timeout + resume hop.
    assert (steps, ref_steps) == (1 + 3 * 0, 1 + 3 * 3)

    (log, steps), (_, ref_steps) = both(charges("abc", each=1))
    assert log == [(0.5, "a"), (1.0, "b"), (1.5, "c")]
    # Three starts due at once, so every charge keeps its grant hop (a's
    # because b and c are due, theirs because they queued) — and nothing
    # else: once it holds the slot nothing is due before its hold ends, so
    # the hold is slept out in place.  1 step each, against 3.
    assert (steps, ref_steps) == (3 + 3 * 1, 3 + 3 * 3)


def test_charge_ending_as_another_entry_falls_due_runs_after_it():
    # The entry at t=1 was pushed before the charge's timeout would have
    # been, so it wins the tie on seq: the horizon test is strict.
    def scenario(eng, note):
        res = make_resource(eng)
        eng.schedule(1, lambda _: note("due"))

        def charger():
            yield from res.use(1)
            note("charger")

        eng.process(charger())

    (log, steps), _ = both(scenario)
    assert log == [(1, "due"), (1, "charger")]
    assert steps == 3  # start, the callback, the hold's own timeout


def test_run_until_inside_a_run_of_charges_stops_the_clock_there():
    steps = []
    for engine_cls in (Engine, RefEngine):
        eng = engine_cls()
        res = make_resource(eng)
        done = []

        def charger():
            for _ in range(5):
                yield from res.use(1)
                done.append(eng.now)

        eng.process(charger())
        eng.run(until=2.5)  # inside the third charge
        assert eng.now == 2.5
        assert done == [1, 2]
        assert (res.busy_time, res.service_count, res.in_use) == (2, 2, 1)
        eng.run(until=3)    # a charge ending exactly at ``until`` is booked
        assert (eng.now, done, res.service_count) == (3, [1, 2, 3], 3)
        eng.run()
        assert (eng.now, res.busy_time, res.service_count) == (5, 5, 5)
        steps.append(eng._steps)
    # The start; the third and fourth holds, which would have passed the
    # ``until`` of the run they began in and so waited on the heap.  The
    # other three ran ahead — the fifth because run() has no stop.
    assert steps == [1 + 2, 1 + 5 * 3]


def test_charge_behind_a_cancelled_entry_falls_back():
    def scenario(eng, note):
        res = make_resource(eng)
        eng.timeout(0.5).cancel()  # a corpse on the heap, ahead of the hold

        def charger():
            yield from res.use(1)
            note("first")
            yield from res.use(1)
            note("second")

        eng.process(charger())

    (log, steps), _ = both(scenario)
    assert log == [(1, "first"), (2, "second")]
    # The first hold takes its hop (the corpse counts as due: falling back
    # is always safe) and the step that pops it discards the corpse; the
    # second runs ahead.
    assert steps == 2


def test_use_on_a_held_slot_queues_fifo_however_quiet_the_heap():
    def scenario(eng, note):
        res = make_resource(eng)

        def holder():
            yield res.acquire()
            yield eng.timeout(10)
            res.release()

        def user(tag, start):
            yield eng.timeout(start)
            yield from res.use(0.25)  # nothing else due before it would end
            note(tag)

        eng.process(holder())
        eng.process(user("a", 1))
        eng.process(user("b", 2))

    (log, _), _ = both(scenario)
    assert log == [(10.25, "a"), (10.5, "b")]


def test_sleep_ending_as_another_entry_falls_due_runs_after_it():
    def scenario(eng, note):
        eng.schedule(1, lambda _: note("due"))

        def sleeper():
            yield from eng.sleep(1)
            note("sleeper")

        eng.process(sleeper())

    (log, steps), _ = both(scenario)
    assert log == [(1, "due"), (1, "sleeper")]
    assert steps == 3  # start, the callback, the sleep's own timeout


def test_run_until_inside_a_run_of_sleeps_stops_the_clock_there():
    steps = []
    for engine_cls in (Engine, RefEngine):
        eng = engine_cls()
        woke = []

        def sleeper():
            for _ in range(5):
                yield from eng.sleep(1)
                woke.append(eng.now)

        eng.process(sleeper())
        eng.run(until=2.5)  # inside the third sleep
        assert (eng.now, woke) == (2.5, [1, 2])
        eng.run(until=3)    # a sleep ending exactly at ``until`` is over
        assert (eng.now, woke) == (3, [1, 2, 3])
        eng.run()
        assert (eng.now, woke) == (5, [1, 2, 3, 4, 5])
        steps.append(eng._steps)
    # The start, and the third and fourth sleeps: each would have passed the
    # ``until`` of the run it began in.  Against expiry + resume for each.
    assert steps == [1 + 2, 1 + 5 * 2]


def test_sleep_behind_a_cancelled_entry_falls_back():
    def scenario(eng, note):
        eng.timeout(0.5).cancel()  # a corpse on the heap, ahead of the sleep

        def sleeper():
            yield from eng.sleep(1)
            note("first")
            yield from eng.sleep(1)
            note("second")

        eng.process(sleeper())

    (log, steps), _ = both(scenario)
    assert log == [(1, "first"), (2, "second")]
    assert steps == 2  # the start, the first sleep's timeout; the second ran ahead


def test_holder_of_a_contended_slot_sleeps_its_hold_out_in_place():
    def scenario(eng, note):
        res = make_resource(eng)

        def user(tag, start, hold):
            yield eng.timeout(start)
            yield from res.use(hold)
            note(tag)

        eng.process(user("h", 0, 3))  # b and c fall due inside its hold ...
        eng.process(user("b", 1, 1))  # ... and queue behind it, in this order
        eng.process(user("c", 2, 1))
        eng.schedule(2.5, lambda _: note(f"queued: {res.queue_length}"))

    (log, steps), (_, ref_steps) = both(scenario)
    assert log == [(2.5, "queued: 2"), (3, "h"), (4, "b"), (5, "c")]
    # b is granted the slot at t=3 with c still queued: a waiter is not a
    # heap entry, nothing is due before t=4, and b's hold takes no step; the
    # release at its end grants c at t=4, as the timeout's expiry would have.
    # Three starts, three arrivals and the observer; h's hold, which the
    # arrivals fall due inside; one grant hop each for b and c.
    assert (steps, ref_steps) == (3 + 3 + 1 + 1 + 2, 3 + 3 * 2 + 1 + 3 * 3)


def test_interrupt_in_a_fallen_back_sleep_raises_at_the_yield_from():
    def scenario(eng, note):
        def sleeper():
            try:
                yield from eng.sleep(2)
                note("slept")
            except Interrupt as intr:
                note(f"interrupted: {intr.cause}")
            yield from eng.sleep(1)  # behind the abandoned timeout, still due
            note("after")

        eng.schedule(1, lambda _: proc.interrupt("wake"))
        proc = eng.process(sleeper())

    (log, _), _ = both(scenario)
    assert log == [(1, "interrupted: wake"), (2, "after")]


def test_negative_duration_raises_at_the_call():
    eng = Engine()
    res = Resource(eng)
    with pytest.raises(ValueError, match="duration must be >= 0"):
        res.use(-1)  # not iterated: use() is not a generator
    with pytest.raises(ValueError, match="must be >= 0"):
        Cpu(eng).work("bad", -1)
    assert (eng.now, res.service_count, res.in_use) == (0, 0, 0)
    assert not eng._heap


def test_cancel_before_and_after_an_inline_expiry():
    eng = Engine()
    log = []

    def sleeper(timer, tag):
        yield timer
        log.append((eng.now, tag))

    doomed, kept = eng.timeout(1), eng.timeout(2)
    eng.process(sleeper(doomed, "doomed"))
    eng.process(sleeper(kept, "kept"))
    eng.schedule(0.5, lambda _: doomed.cancel())
    drain(eng)
    assert log == [(2, "kept")]
    assert (doomed.cancelled, doomed.fired, doomed.triggered) == (True, False, False)
    assert (kept.cancelled, kept.fired, kept.ok) == (False, True, True)
    kept.cancel()  # after it fired: a no-op that must not touch liveness
    doomed.cancel()
    assert eng._live == eng.live_pending() == 0
    assert eng.now == 2  # the cancelled entry never advanced the clock


def test_failed_event_still_throws_into_the_waiter():
    def scenario(eng, note):
        gate = Event(eng, name="gate")

        def waiter():
            yield eng.timeout(1)  # resumed inline by the expiry ...
            try:
                yield gate        # ... and a failure still arrives as a throw
            except EventFailed as failure:
                note(f"failed: {failure.args[0]}")

        eng.process(waiter())
        eng.schedule(2, lambda _: gate.fail(ValueError("boom")))

    (log, _), _ = both(scenario)
    assert log == [(2, "failed: boom")]


def test_crash_in_an_inline_waiter_surfaces_from_run():
    eng = Engine()

    def crasher():
        yield eng.timeout(1)
        raise KeyError("bug")

    eng.process(crasher())
    with pytest.raises(Exception, match="crashed at t=1"):
        eng.run()
