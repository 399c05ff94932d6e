"""Several DiskQueues coexisting — the volume layer's member queues.

Every member of a multi-member volume owns its own DiskQueue and scheduler
object.  These tests pin the properties the volume fan-out relies on: the
elevator's pass accounting stays per-queue (no shared state bleeding
between members), barriers hold per member, and popping one member's
queue leaves every other member's order alone.
"""

import pytest

from repro.disk import Buf, BufOp, DiskQueue
from repro.kernel.config import SystemConfig
from repro.kernel.syscalls import Proc
from repro.kernel.system import System
from repro.sim import Engine
from repro.units import KB


def wbuf(engine, sector, nsectors=2, ordered=False):
    buf = Buf(engine, BufOp.WRITE, sector, nsectors,
              data=bytes(nsectors * 512), ordered=ordered)
    buf.issued_at = 0.0
    return buf


def drain(queue, last_sector=0):
    order = []
    while True:
        buf = queue.pop(last_sector, now=0.0)
        if buf is None:
            return order
        order.append(buf)
        last_sector = buf.end_sector


@pytest.mark.parametrize("name", ["elevator", "fifo", "deadline"])
def test_pops_are_per_member(name):
    engine = Engine()
    queues = [DiskQueue(scheduler=name) for _ in range(2)]
    # Interleaved inserts, as the volume fan-out produces them.
    for sector in (40, 11, 90, 31, 5, 70):
        queues[sector % 2].insert(wbuf(engine, sector))
    queues[0].insert(wbuf(engine, 60, ordered=True))
    queues[0].insert(wbuf(engine, 1))
    # Pops of one member interleaved with draining the other.
    head = queues[0].pop(0, now=0.0)
    other = [b.sector for b in drain(queues[1])]
    rest = [b.sector for b in drain(queues[0], last_sector=head.end_sector)]
    if name == "fifo":
        assert (other, [head.sector] + rest) == ([11, 31, 5],
                                                 [40, 90, 70, 60, 1])
    else:
        assert (other, [head.sector] + rest) == ([5, 11, 31],
                                                 [40, 70, 90, 60, 1])


def test_barriers_hold_per_member_queue():
    engine = Engine()
    queues = [DiskQueue(scheduler="elevator") for _ in range(2)]
    pre = [wbuf(engine, s) for s in (40, 10)]
    barrier = wbuf(engine, 90, ordered=True)
    post = [wbuf(engine, s) for s in (5, 50)]
    for buf in pre + [barrier] + post:
        queues[0].insert(buf)
    # The sibling queue holds sort-happy traffic but no barrier.
    for sector in (80, 20, 60):
        queues[1].insert(wbuf(engine, sector))
    order = drain(queues[0])
    assert set(order[:2]) == set(pre)
    assert order[2] is barrier
    assert set(order[3:]) == set(post)
    # The barrier in queue 0 never leaked into queue 1's ordering.
    assert [b.sector for b in drain(queues[1])] == [20, 60, 80]


def test_elevator_pass_accounting_is_per_queue():
    engine = Engine()
    queues = [DiskQueue(scheduler="elevator") for _ in range(2)]
    for queue in queues:
        for sector in (100, 50, 10):
            queue.insert(wbuf(engine, sector))
    # A pop with the head past sectors 10 and 50 passes both over in
    # queue 0; queue 1's elevator must not see those passes.
    served = queues[0].pop(60, now=0.0)
    assert served.sector == 100
    passes = [queue.scheduler._passes for queue in queues]
    assert len(passes[0]) == 2
    assert len(passes[1]) == 0
    queues[1].pop(60, now=0.0)
    assert len(passes[1]) == 2
    assert passes[0] is not passes[1]


def test_volume_member_queues_are_distinct_objects():
    system = System.booted(SystemConfig(layout="stripe:4"))
    queues = [m.driver.queue for m in system.volume.members]
    assert len({id(q) for q in queues}) == 4
    assert len({id(q.scheduler) for q in queues}) == 4


def test_member_queues_fill_and_drain_under_load():
    """A striped write burst exercises all member queues concurrently, and
    every one of them drains."""
    system = System.booted(SystemConfig(layout="stripe:2"))
    proc = Proc(system, name="t")

    def work():
        fd = yield from proc.creat("/f")
        yield from proc.write(fd, b"\x99" * (512 * KB))
        yield from proc.fsync(fd)
        yield from proc.close(fd)

    system.run(work())
    assert sum(len(m.driver.queue) for m in system.volume.members) == 0
    for member in system.volume.members:
        assert member.driver.idle
        assert member.driver.stats["requests"] > 0
