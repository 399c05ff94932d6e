"""Tests for the pluggable disk schedulers and their DiskQueue contract."""

import pytest

from repro.disk import (
    Buf, BufOp, DeadlineScheduler, DiskQueue, ElevatorScheduler,
    FifoScheduler, make_scheduler,
)
from repro.sim import Engine
from repro.units import MS


def rbuf(engine, sector, nsectors=2, issued_at=0.0, **kw):
    buf = Buf(engine, BufOp.READ, sector, nsectors, **kw)
    buf.issued_at = issued_at
    return buf


def wbuf(engine, sector, nsectors=2, issued_at=0.0):
    buf = Buf(engine, BufOp.WRITE, sector, nsectors,
              data=bytes(nsectors * 512))
    buf.issued_at = issued_at
    return buf


def drain(queue, last_sector=0, now=0.0):
    """Pop everything, advancing the head like the driver does."""
    order = []
    while True:
        buf = queue.pop(last_sector, now=now)
        if buf is None:
            return order
        order.append(buf)
        last_sector = buf.end_sector


def test_make_scheduler_by_name():
    assert isinstance(make_scheduler("elevator"), ElevatorScheduler)
    assert isinstance(make_scheduler("fifo"), FifoScheduler)
    assert isinstance(make_scheduler("deadline"), DeadlineScheduler)
    with pytest.raises(ValueError):
        make_scheduler("cfq")


def test_same_bufs_different_orders():
    """The point of the interface: identical queue, policy-specific order."""
    eng = Engine()
    sectors = [40, 10, 30, 20]
    orders = {}
    for name in ("elevator", "fifo", "deadline"):
        queue = DiskQueue(scheduler=name)
        for i, sector in enumerate(sectors):
            queue.insert(rbuf(eng, sector, issued_at=float(i)))
        orders[name] = [b.sector for b in drain(queue, last_sector=0)]
    assert orders["fifo"] == [40, 10, 30, 20]
    assert orders["elevator"] == [10, 20, 30, 40]
    assert orders["deadline"] == [10, 20, 30, 40]  # nothing late: elevator


def test_elevator_one_way_sweep_with_wrap():
    eng = Engine()
    queue = DiskQueue(scheduler="elevator")
    for sector in (10, 50, 30):
        queue.insert(rbuf(eng, sector))
    # Head at 25: serve 30, 50 on the way up, then wrap to 10.
    assert [b.sector for b in drain(queue, last_sector=25)] == [30, 50, 10]


def test_deadline_promotes_expired_read():
    eng = Engine()
    assert DeadlineScheduler.READ_DEADLINE == 60 * MS
    queue = DiskQueue(scheduler="deadline")
    # A read parked at a low sector behind a stream of forward writes.
    starving = rbuf(eng, 5, issued_at=0.0)
    queue.insert(starving)
    for i, sector in enumerate((100, 200, 300)):
        queue.insert(wbuf(eng, sector, issued_at=0.01 * i))
    # Before its deadline the elevator order wins (head at 90 goes up).
    assert queue.pop(90, now=0.050).sector == 100
    # Past the read deadline the read is served first despite its position.
    assert queue.pop(102, now=0.100) is starving


def test_deadline_expired_writes_by_earliest_deadline():
    eng = Engine()
    assert DeadlineScheduler.WRITE_DEADLINE == 400 * MS
    queue = DiskQueue(scheduler="deadline")
    first = wbuf(eng, 300, issued_at=0.0)
    second = wbuf(eng, 100, issued_at=0.1)
    queue.insert(first)
    queue.insert(second)
    # Both expired: earliest deadline (oldest write) wins, not sector order.
    assert queue.pop(0, now=1.0) is first


def test_remove_forgets_scheduler_state():
    eng = Engine()
    queue = DiskQueue(scheduler="elevator")
    parked = rbuf(eng, 10)
    queue.insert(parked)
    queue.insert(rbuf(eng, 30))
    queue.pop(20)  # bump parked's pass count
    assert queue.scheduler._passes
    queue.remove(parked)
    assert not queue.scheduler._passes
    assert len(queue) == 0


def _reference_elevator_select(passes, max_passes, seg, last_sector):
    """ElevatorScheduler.select as first written: a starved scan and a
    materialised key list on every call.  The shipped version must pick
    the same index and leave the same pass counts."""
    from bisect import bisect_left

    starved = [i for i, b in enumerate(seg)
               if passes.get(b.id, 0) >= max_passes]
    if starved:
        return min(starved, key=lambda i: seg[i].issued_at)
    i = bisect_left([b.sector for b in seg], last_sector)
    if i == len(seg):
        i = 0
    for skipped in seg[:i]:
        passes[skipped.id] = passes.get(skipped.id, 0) + 1
    return i


@pytest.mark.parametrize("seed", range(8))
def test_elevator_select_matches_reference(seed):
    import random

    rng = random.Random(seed)
    eng = Engine()
    sched = ElevatorScheduler()
    ref_passes: dict[int, int] = {}
    seg: list = []
    last_sector, starved_picks = 0, 0
    for step in range(600):
        # Arrivals cluster ahead of the head (a forward stream), with the
        # odd request parked behind it — the starvation recipe.
        for _ in range(rng.randrange(0, 3)):
            sector = (rng.randrange(0, 50) if rng.random() < 0.2
                      else last_sector + rng.randrange(0, 40))
            sched.insert(seg, rbuf(eng, sector, issued_at=float(step)))
        if not seg:
            continue
        before = dict(sched._passes)
        assert before == ref_passes
        want = _reference_elevator_select(ref_passes, sched.MAX_PASSES,
                                          seg, last_sector)
        got = sched.select(seg, last_sector, now=float(step))
        assert got == want
        assert sched._passes == ref_passes
        starved_picks += before.get(seg[got].id, 0) >= sched.MAX_PASSES
        buf = seg.pop(got)
        sched.forget(buf)
        ref_passes.pop(buf.id, None)
        last_sector = buf.end_sector
    assert [b.sector for b in seg] == sorted(b.sector for b in seg)
    assert starved_picks > 0, "the starvation path never ran"
