"""Tests for the CPU model and cost table."""

import pytest

from repro.cpu import CostTable, Cpu
from repro.sim import Engine, Interrupt
from repro.units import MB, US


def test_work_advances_time_and_ledger():
    eng = Engine()
    cpu = Cpu(eng)

    def proc():
        yield from cpu.work("getpage", 300 * US)
        yield from cpu.work("getpage", 200 * US)
        yield from cpu.work("bmap", 100 * US)

    eng.run_process(proc())
    assert eng.now == pytest.approx(600 * US)
    assert cpu.ledger["getpage"] == pytest.approx(500 * US)
    assert cpu.ledger["bmap"] == pytest.approx(100 * US)
    assert cpu.system_time == pytest.approx(600 * US)


def test_zero_work_is_free_and_nonblocking():
    eng = Engine()
    cpu = Cpu(eng)

    def proc():
        yield from cpu.work("noop", 0.0)
        return eng.now

    assert eng.run_process(proc()) == 0
    assert cpu.system_time == 0


def test_negative_work_rejected():
    eng = Engine()
    cpu = Cpu(eng)
    with pytest.raises(ValueError):
        list(cpu.work("bad", -1.0))


def test_cpu_contention_serializes():
    eng = Engine()
    cpu = Cpu(eng)
    finish = {}

    def user(tag):
        yield from cpu.work(tag, 1.0)
        finish[tag] = eng.now

    eng.process(user("a"))
    eng.process(user("b"))
    eng.run()
    assert finish == {"a": 1.0, "b": 2.0}
    assert cpu.utilization() == pytest.approx(1.0)


def test_interrupt_while_queued_for_the_cpu_leaves_it_usable():
    eng = Engine()
    cpu = Cpu(eng)
    finish = {}

    def user(tag, arrive):
        yield eng.timeout(arrive)
        try:
            yield from cpu.work(tag, 1.0)
        except Interrupt:
            tag += " (interrupted)"
        finish[tag] = eng.now

    eng.process(user("a", 0.0))
    queued = eng.process(user("b", 0.25))
    eng.process(user("c", 2.0))
    eng.schedule(0.5, lambda _: queued.interrupt())
    eng.run()
    assert finish == {"b (interrupted)": 0.5, "a": 1.0, "c": 3.0}
    assert (cpu.resource.in_use, cpu.resource.queue_length) == (0, 0)


def test_copy_uses_bandwidth():
    eng = Engine()
    costs = CostTable(copy_bandwidth=8 * MB)
    cpu = Cpu(eng, costs)

    def proc():
        yield from cpu.copy("copyout", 8 * MB)

    eng.run_process(proc())
    assert eng.now == pytest.approx(1.0)
    assert cpu.ledger["copyout"] == pytest.approx(1.0)


def test_interrupt_charge_accounts_without_blocking():
    eng = Engine()
    cpu = Cpu(eng)
    delay = cpu.interrupt_charge("intr", 180 * US)
    assert delay == pytest.approx(180 * US)
    assert cpu.ledger["intr"] == pytest.approx(180 * US)
    assert eng.now == 0  # no time elapsed in the caller's frame


def test_cost_table_free_is_zero():
    free = CostTable.free()
    assert free.fault == 0
    assert free.copy_cost(10 * MB) == 0
    eng = Engine()
    cpu = Cpu(eng, free)

    def proc():
        yield from cpu.work("fault", free.fault)
        yield from cpu.copy("copy", 1 * MB)
        return eng.now

    assert eng.run_process(proc()) == 0


def test_copy_cost_validation():
    with pytest.raises(ValueError):
        CostTable().copy_cost(-1)


def test_breakdown_and_reset():
    eng = Engine()
    cpu = Cpu(eng)

    def proc():
        yield from cpu.work("a", 1.0)
        yield from cpu.work("b", 2.0)

    eng.run_process(proc())
    assert cpu.breakdown() == {"a": 1.0, "b": 2.0}
    cpu.reset_ledger()
    assert cpu.system_time == 0
    assert cpu.resource.busy_time == 0


def test_two_cpus_overlap():
    eng = Engine()
    cpu = Cpu(eng, ncpus=2)
    finish = {}

    def user(tag):
        yield from cpu.work(tag, 1.0)
        finish[tag] = eng.now

    for tag in "abc":
        eng.process(user(tag))
    eng.run()
    assert finish == {"a": 1.0, "b": 1.0, "c": 2.0}
