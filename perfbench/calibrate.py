"""A fixed reference loop that says how fast this machine runs Python now.

The benchmark box is small and shared: when a neighbour (or the sibling
hardware thread) is busy, the same rep takes 20-45 % longer in host *and*
CPU time, sometimes for a minute at a stretch — longer than a whole run,
so no statistic over a run's reps can remove it.  What does remove it is
timing a fixed piece of work alongside the reps and reporting host time
relative to it.  Interference only ever adds time, so both the reps and
this loop are read by their fastest sample.

The loop is a miniature of the simulator's inner loop (heap-scheduled
events resuming generators, small ``__slots__`` objects, a dict keyed by
tuples, an occasional filtered ``sorted``) so that contention slows it the
way it slows the workloads.  It never touches ``src/``, so no change to the
simulator can move it.
"""

from __future__ import annotations

import heapq
from time import perf_counter

#: What :func:`calibrate` returns on the machine the first baseline was
#: measured on, when nothing else runs.  Normalised host seconds are
#: "seconds on a machine where the loop takes this long", which keeps them
#: close to real seconds there.
REFERENCE_S = 0.096

STEPS = 120_000
PROCS = 8
PASSES = 3


class _Event:
    __slots__ = ("when", "proc")

    def __init__(self, when: float, proc: int):
        self.when = when
        self.proc = proc


def calibrate() -> float:
    """Host seconds for the reference loop, the fastest of a few passes."""
    return min(_one_pass() for _ in range(PASSES))


def _one_pass() -> float:
    start = perf_counter()
    pages: dict[tuple[int, int], float] = {}

    def process(pid: int):
        offset = 0
        while True:
            now = yield
            offset += 8192
            pages[(pid, offset % (1 << 20))] = now

    procs = [process(pid) for pid in range(PROCS)]
    heap: list[tuple[float, int, _Event]] = []
    for pid, proc in enumerate(procs):
        next(proc)
        heapq.heappush(heap, (0.0, pid, _Event(0.0, pid)))
    for seq in range(PROCS, PROCS + STEPS):
        now, _, event = heapq.heappop(heap)
        procs[event.proc].send(now)
        when = now + (seq * 7919 % 97) * 1e-4
        heapq.heappush(heap, (when, seq, _Event(when, event.proc)))
        if seq % 4096 == 0:
            sorted((key for key in pages if key[0] == event.proc),
                   key=lambda key: key[1])
    return perf_counter() - start
