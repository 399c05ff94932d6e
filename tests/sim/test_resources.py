"""Tests for semaphores, resources, and signals."""

import pytest

from repro.sim import Engine, Interrupt, Resource, Semaphore, Signal


def test_semaphore_immediate_grant():
    eng = Engine()
    sem = Semaphore(eng, 2)

    def proc():
        yield sem.acquire()
        return eng.now

    assert eng.run_process(proc()) == 0
    assert sem.value == 1


def test_semaphore_blocks_until_release():
    eng = Engine()
    sem = Semaphore(eng, 0)
    log = []

    def waiter():
        yield sem.acquire()
        log.append(("granted", eng.now))

    def releaser():
        yield eng.timeout(5)
        sem.release()

    eng.process(waiter())
    eng.process(releaser())
    eng.run()
    assert log == [("granted", 5)]


def test_semaphore_fifo_order():
    eng = Engine()
    sem = Semaphore(eng, 0)
    order = []

    def waiter(tag):
        yield sem.acquire()
        order.append(tag)

    for tag in "abc":
        eng.process(waiter(tag))

    def releaser():
        for _ in range(3):
            yield eng.timeout(1)
            sem.release()

    eng.process(releaser())
    eng.run()
    assert order == ["a", "b", "c"]


def test_semaphore_counts_units_not_ops():
    """A large request at the head blocks smaller later requests (FIFO)."""
    eng = Engine()
    sem = Semaphore(eng, 3)
    order = []

    def big():
        yield sem.acquire(5)
        order.append("big")

    def small():
        yield eng.timeout(1)
        yield sem.acquire(1)
        order.append("small")

    eng.process(big())
    eng.process(small())

    def releaser():
        yield eng.timeout(2)
        sem.release(2)  # big (head of queue) gets its 5 first
        yield eng.timeout(1)
        sem.release(1)  # only now can small proceed

    eng.process(releaser())
    eng.run()
    assert order == ["big", "small"]


def test_semaphore_take_goes_negative():
    eng = Engine()
    sem = Semaphore(eng, 1)
    sem.take(5)
    assert sem.value == -4
    sem.release(4)
    assert sem.value == 0


def test_try_acquire():
    eng = Engine()
    sem = Semaphore(eng, 1)
    assert sem.try_acquire()
    assert not sem.try_acquire()
    sem.release()
    assert sem.try_acquire()


def test_semaphore_argument_validation():
    eng = Engine()
    with pytest.raises(ValueError):
        Semaphore(eng, -1)
    sem = Semaphore(eng, 1)
    with pytest.raises(ValueError):
        sem.acquire(0)
    with pytest.raises(ValueError):
        sem.release(0)


def test_resource_serializes_users():
    eng = Engine()
    cpu = Resource(eng, capacity=1, name="cpu")
    spans = []

    def user(tag):
        start_wait = eng.now
        yield from cpu.use(2.0)
        spans.append((tag, start_wait, eng.now))

    for tag in "ab":
        eng.process(user(tag))
    eng.run()
    assert spans == [("a", 0, 2.0), ("b", 0, 4.0)]
    assert cpu.busy_time == 4.0
    assert cpu.service_count == 2


def test_resource_capacity_two_overlaps():
    eng = Engine()
    res = Resource(eng, capacity=2)
    done = []

    def user(tag):
        yield from res.use(2.0)
        done.append((tag, eng.now))

    for tag in "abc":
        eng.process(user(tag))
    eng.run()
    assert done == [("a", 2.0), ("b", 2.0), ("c", 4.0)]


def test_resource_utilization():
    eng = Engine()
    res = Resource(eng, capacity=1)

    def user():
        yield from res.use(3.0)
        yield eng.timeout(1.0)

    eng.run_process(user())
    assert res.utilization() == pytest.approx(0.75)


def test_resource_zero_duration_use():
    eng = Engine()
    res = Resource(eng, capacity=1)

    def user():
        yield from res.use(0.0)
        return eng.now

    assert eng.run_process(user()) == 0
    assert res.in_use == 0


def test_interrupted_queued_waiter_does_not_leak_the_slot():
    """holder uses [0, 1]; victim queues behind it and is interrupted at
    t=0.5; a late user arriving at t=2 must still be served."""
    eng = Engine()
    res = Resource(eng, capacity=1)
    log = []

    def user(tag, arrive):
        yield eng.timeout(arrive)
        try:
            yield from res.use(1.0)
        except Interrupt:
            log.append((tag, "interrupted", eng.now))
        else:
            log.append((tag, "served", eng.now))

    eng.process(user("holder", 0.0))
    victim = eng.process(user("victim", 0.25))
    late = eng.process(user("late", 2.0))
    eng.schedule(0.5, lambda _: victim.interrupt())
    eng.run()
    assert log == [("victim", "interrupted", 0.5), ("holder", "served", 1.0),
                   ("late", "served", 3.0)]
    assert late.triggered
    assert (res.in_use, res.queue_length) == (0, 0)


def test_waiter_interrupted_in_the_instant_of_its_grant_returns_the_slot():
    eng = Engine()
    res = Resource(eng, capacity=1)
    log = []

    def victim_body():
        try:
            yield from res.use(1.0)
        except Interrupt:
            log.append(("interrupted", eng.now))

    def interrupt_then_release(_):
        # The throw is posted first, so it lands on a wait that release()
        # has granted in the meantime.
        victim.interrupt()
        res.release()

    assert res.acquire().triggered
    victim = eng.process(victim_body())
    eng.schedule(1.0, interrupt_then_release)
    eng.run()
    assert log == [("interrupted", 1.0)]
    assert (res.in_use, res.queue_length) == (0, 0)


def test_abandoning_the_queue_head_lets_a_smaller_request_through():
    eng = Engine()
    sem = Semaphore(eng, 1)
    big, small = sem.acquire(5), sem.acquire(1)
    assert not small.triggered  # strict FIFO: stuck behind the big request
    sem.abandon(big, 5)
    assert small.triggered and not big.triggered
    assert (sem.value, sem.waiting) == (0, 0)


def test_signal_broadcast():
    eng = Engine()
    sig = Signal(eng)
    woken = []

    def waiter(tag):
        yield sig.wait()
        woken.append((tag, eng.now))

    for tag in "ab":
        eng.process(waiter(tag))

    def firer():
        yield eng.timeout(3)
        assert sig.fire() == 2

    eng.process(firer())
    eng.run()
    assert woken == [("a", 3), ("b", 3)]
    assert sig.waiting == 0


def test_signal_wait_after_fire_needs_new_fire():
    eng = Engine()
    sig = Signal(eng)
    sig.fire()
    woken = []

    def late_waiter():
        yield sig.wait()
        woken.append(eng.now)

    eng.process(late_waiter())

    def firer():
        yield eng.timeout(1)
        sig.fire()

    eng.process(firer())
    eng.run()
    assert woken == [1]
