"""Property tests on the core policy state machines and queue structures."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ReadAheadState, WriteClusterState
from repro.disk import Buf, BufOp, DiskQueue
from repro.sim import Engine

PAGE = 8192


# -- write clustering: delayed + flushed tiles the written pages exactly ----

@settings(max_examples=60, deadline=None)
@given(
    offsets=st.lists(st.integers(0, 63), min_size=1, max_size=40),
    cluster_pages=st.integers(1, 15),
)
def test_writecluster_never_loses_or_duplicates_pages(offsets, cluster_pages):
    state = WriteClusterState()
    flushed: list[int] = []
    offered: list[int] = []
    for page in offsets:
        offset = page * PAGE
        offered.append(offset)
        action = state.offer(offset, PAGE, cluster_pages * PAGE)
        if action.should_flush:
            start = action.flush_offset
            for i in range(action.flush_len // PAGE):
                flushed.append(start + i * PAGE)
    # Drain whatever is still delayed.
    if state.pending:
        start, span = state.delayoff, state.delaylen
        for i in range(span // PAGE):
            flushed.append(start + i * PAGE)
    # Every page offered is flushed exactly once, in total.
    assert sorted(flushed) == sorted(offered)


@settings(max_examples=60, deadline=None)
@given(offsets=st.lists(st.integers(0, 63), min_size=1, max_size=40))
def test_writecluster_pending_is_always_contiguous(offsets):
    state = WriteClusterState()
    for page in offsets:
        state.offer(page * PAGE, PAGE, 5 * PAGE)
        assert 0 <= state.delaylen <= 5 * PAGE
        assert state.delayoff % PAGE == 0


# -- read-ahead: never prefetch the same cluster twice, never go backwards --

@settings(max_examples=60, deadline=None)
@given(
    jumps=st.lists(st.integers(0, 40), min_size=2, max_size=30),
    cluster=st.integers(1, 8),
)
def test_readahead_never_reissues_a_cluster(jumps, cluster):
    state = ReadAheadState()
    issued: list[int] = []
    for page in jumps:
        offset = page * PAGE
        action = state.observe(offset, PAGE, cached=True)
        if action.ra_offset is not None:
            assert action.ra_offset not in issued
            issued.append(action.ra_offset)
            state.issued(action.ra_offset, cluster * PAGE)
    assert issued == sorted(issued)  # read-ahead only moves forward


# -- disksort: everything queued is eventually served, barriers hold --------

@settings(max_examples=60, deadline=None)
@given(
    sectors=st.lists(st.integers(0, 5000), min_size=1, max_size=40),
    barrier_at=st.integers(0, 39),
)
def test_disksort_serves_everything_once(sectors, barrier_at):
    eng = Engine()
    queue = DiskQueue()
    bufs = []
    for i, sector in enumerate(sectors):
        buf = Buf(eng, BufOp.WRITE, sector, 2, data=bytes(1024),
                  ordered=(i == barrier_at))
        bufs.append(buf)
        queue.insert(buf)
    served = []
    last = 0
    while True:
        buf = queue.pop(last)
        if buf is None:
            break
        served.append(buf)
        last = buf.end_sector
    assert len(served) == len(bufs)
    assert {b.id for b in served} == {b.id for b in bufs}
    # Barrier property: everything inserted before the barrier is served
    # before it; everything after, after it.
    if barrier_at < len(bufs):
        barrier = bufs[barrier_at]
        pos = served.index(barrier)
        before_ids = {b.id for b in bufs[:barrier_at]}
        assert before_ids == {b.id for b in served[:pos]}


@settings(max_examples=40, deadline=None)
@given(sectors=st.lists(st.integers(0, 5000), min_size=2, max_size=40))
def test_disksort_is_mostly_ascending(sectors):
    """C-LOOK serves in ascending runs: the number of descending steps is
    bounded by the number of sweeps (wraps) plus anti-starvation picks."""
    eng = Engine()
    queue = DiskQueue()
    for sector in sectors:
        queue.insert(Buf(eng, BufOp.WRITE, sector, 2, data=bytes(1024)))
    order = []
    last = 0
    while True:
        buf = queue.pop(last)
        if buf is None:
            break
        order.append(buf.sector)
        last = buf.end_sector
    descents = sum(1 for a, b in zip(order, order[1:]) if b < a)
    assert descents <= max(1, len(order) // 2)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_disksort_starvation_bounded(data):
    """A request behind the head is served within MAX_PASSES pops even if
    forward traffic keeps arriving."""
    eng = Engine()
    queue = DiskQueue()
    victim = Buf(eng, BufOp.READ, 10, 2)
    queue.insert(victim)
    last = 1000  # head is already past the victim
    pops = 0
    next_sector = 1100
    while True:
        # Keep feeding forward traffic, as a streaming writer would.
        queue.insert(Buf(eng, BufOp.WRITE, next_sector, 2, data=bytes(1024)))
        next_sector += data.draw(st.integers(2, 50))
        buf = queue.pop(last)
        pops += 1
        last = buf.end_sector
        if buf is victim:
            break
        assert pops < 20, "victim starved"
