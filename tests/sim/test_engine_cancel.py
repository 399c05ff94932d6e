"""Engine.cancel liveness accounting, pinned by the sanitizer's invariant.

The run-to-idle loop stops when ``_live`` (non-daemon, non-cancelled
entries) hits zero.  Every path below asserts the same invariant the
sanitizer's ``engine_liveness`` check enforces: ``_live`` equals
``live_pending()`` — a drifted counter either wedges ``run()`` or stops
it with work still pending.
"""

from repro.sim import Engine, Event


def assert_consistent(eng):
    assert eng._live == eng.live_pending()


def test_cancel_pending_entry_decrements_once():
    eng = Engine()
    entry = eng.schedule(1.0, lambda _: None)
    assert eng._live == 1
    eng.cancel(entry)
    assert eng._live == 0
    assert_consistent(eng)


def test_double_cancel_is_a_noop():
    eng = Engine()
    entry = eng.schedule(1.0, lambda _: None)
    eng.cancel(entry)
    eng.cancel(entry)
    assert eng._live == 0
    assert_consistent(eng)


def test_cancel_after_fire_does_not_double_decrement():
    # The historical bug: cancelling an entry that already ran decremented
    # _live a second time, making run-to-idle stop with work pending.
    eng = Engine()
    fired = []
    entry = eng.schedule(1.0, fired.append, "a")
    eng.schedule(2.0, fired.append, "b")
    assert eng._live == 2
    eng.step()  # fires "a"
    assert fired == ["a"]
    assert eng._live == 1
    eng.cancel(entry)  # must be a no-op now
    assert eng._live == 1
    assert_consistent(eng)
    eng.run()
    assert fired == ["a", "b"]
    assert eng._live == 0


def test_cancel_after_fire_then_run_completes_remaining_work():
    # With the double-decrement, this run() would stop before "late".
    eng = Engine()
    out = []
    early = eng.schedule(1.0, out.append, "early")
    eng.schedule(5.0, out.append, "late")
    eng.step()
    eng.cancel(early)
    eng.run()
    assert out == ["early", "late"]


def test_cancelled_daemon_entry_never_counted():
    eng = Engine()
    entry = eng.schedule(1.0, lambda _: None, daemon=True)
    assert eng._live == 0
    eng.cancel(entry)
    eng.cancel(entry)
    assert eng._live == 0
    assert_consistent(eng)


def test_daemon_entries_do_not_hold_run_open():
    eng = Engine()
    ran = []
    eng.schedule(1.0, ran.append, "work")
    eng.schedule(50.0, ran.append, "daemon", daemon=True)
    eng.run()
    assert ran == ["work"]  # stopped at idle; daemon housekeeping skipped
    assert eng._live == 0
    assert_consistent(eng)


def test_cancel_flips_entry_to_daemon_exactly_once():
    # cancel() stops the entry counting toward liveness by flipping its
    # daemon flag; a second cancel (or a later fire) must not flip again.
    eng = Engine()
    entry = eng.schedule(1.0, lambda _: None)
    eng.cancel(entry)
    assert entry.daemon and entry.cancelled
    eng.cancel(entry)
    assert eng._live == 0
    eng.run()  # pops and discards the cancelled slot
    assert eng._live == 0
    assert_consistent(eng)


def test_fired_flag_set_by_step():
    eng = Engine()
    entry = eng.schedule(1.0, lambda _: None)
    assert not entry.fired
    eng.run()
    assert entry.fired


def test_run_until_does_not_overshoot_past_a_cancelled_head():
    # run(until=T) used to peek the cancelled head's time (<= T), call
    # step(), and step() skipped the corpse and ran the *next* live entry
    # however late it was: the clock ended at 10, not 5.
    eng = Engine()
    out = []
    early = eng.schedule(1.0, out.append, "early")
    eng.schedule(10.0, out.append, "late")
    eng.cancel(early)
    eng.run(until=5.0)
    assert eng.now == 5.0
    assert out == []
    assert_consistent(eng)
    eng.run()
    assert eng.now == 10.0
    assert out == ["late"]


def test_run_until_with_only_cancelled_entries_lands_on_until():
    eng = Engine()
    eng.cancel(eng.schedule(1.0, lambda _: None))
    eng.cancel(eng.schedule(2.0, lambda _: None))
    eng.run(until=5.0)
    assert eng.now == 5.0
    assert eng.live_pending() == eng._live == 0


def test_live_pending_counts_handle_free_entries():
    # Event callbacks and process starts are posted without a Scheduled
    # handle; they are live work all the same.
    eng = Engine()

    def proc():
        yield eng.timeout(1.0)

    eng.process(proc())  # handle-free start entry
    done = Event(eng)
    done.succeed()
    done.add_callback(lambda _ev: None)  # handle-free, already triggered
    eng.timeout(3.0, daemon=True)
    cancelled = eng.timeout(4.0)
    cancelled.cancel()
    assert eng._live == 2
    while eng._live:
        assert_consistent(eng)
        eng.step()
    assert_consistent(eng)
    assert eng.now == 1.0


def test_cancelled_timers_never_advance_time():
    eng = Engine()
    eng.timeout(2.0)
    timer = eng.timeout(30.0)
    ticker = eng.every(7.0, lambda: None, daemon=False)
    timer.cancel()
    ticker.cancel()
    eng.run()
    assert eng.now == 2.0
    assert not timer.triggered and ticker.fires == 0
    assert_consistent(eng)
