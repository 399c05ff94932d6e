"""B_ORDER barrier semantics across schedulers: the DiskQueue keeps each
barrier's segment boundary, so no scheduler reorders a request across a
write barrier, and the elevator's pass accounting follows the pops."""

import pytest

from repro.disk import Buf, BufOp, DiskQueue
from repro.sim import Engine


def wbuf(engine, sector, nsectors=2, ordered=False, issued_at=0.0):
    buf = Buf(engine, BufOp.WRITE, sector, nsectors,
              data=bytes(nsectors * 512), ordered=ordered)
    buf.issued_at = issued_at
    return buf


def drain(queue, last_sector=0, now=0.0):
    order = []
    while True:
        buf = queue.pop(last_sector, now=now)
        if buf is None:
            return order
        order.append(buf)
        last_sector = buf.end_sector
    return order


def fill(queue, engine):
    """Sweep / barrier / sweep, with sectors chosen so a sort-happy
    scheduler would love to reorder across the barrier."""
    pre = [wbuf(engine, s) for s in (40, 10, 30)]
    barrier = wbuf(engine, 90, ordered=True)
    post = [wbuf(engine, s) for s in (5, 50, 20)]
    for buf in pre + [barrier] + post:
        queue.insert(buf)
    return pre, barrier, post


@pytest.mark.parametrize("name", ["elevator", "fifo", "deadline"])
def test_barrier_never_reordered_across(name):
    engine = Engine()
    queue = DiskQueue(scheduler=name)
    pre, barrier, post = fill(queue, engine)
    order = drain(queue)
    assert len(order) == 7
    cut = order.index(barrier)
    assert set(order[:cut]) == set(pre)
    assert set(order[cut + 1:]) == set(post)


def test_elevator_pop_order_with_barriers():
    engine = Engine()
    queue = DiskQueue(scheduler="elevator")
    pre, barrier, post = fill(queue, engine)
    # One ascending sweep per segment, the barrier alone between them.
    assert drain(queue) == sorted(pre, key=lambda b: b.sector) + [barrier] \
        + sorted(post, key=lambda b: b.sector)


def test_elevator_pops_count_passes():
    engine = Engine()
    queue = DiskQueue(scheduler="elevator")
    low, mid, high = (wbuf(engine, s) for s in (10, 30, 40))
    for buf in (high, low, mid):
        queue.insert(buf)
    # The head at 35 serves 40 and passes over 10 and 30 once each.
    assert queue.pop(35) is high
    assert queue.scheduler._passes == {low.id: 1, mid.id: 1}
    # The wrap serves them in sector order, and each leaves no count.
    assert drain(queue, last_sector=high.end_sector) == [low, mid]
    assert queue.scheduler._passes == {}


def test_consecutive_barriers_stay_ordered():
    engine = Engine()
    queue = DiskQueue(scheduler="elevator")
    b1 = wbuf(engine, 60, ordered=True)
    b2 = wbuf(engine, 4, ordered=True)
    tail = wbuf(engine, 2)
    for buf in (b1, b2, tail):
        queue.insert(buf)
    assert drain(queue) == [b1, b2, tail]
