"""The pageout daemon: the basic two-handed clock.

"The first hand of the clock clears reference bits and the second hand frees
the page if the reference bit is still clear.  The hands move, in unison,
only when the amount of free memory drops below a low water mark."

The daemon is a simulation process.  It charges CPU for every page it
examines and for every wakeup, which is how the paper's page-thrashing
observation shows up in the model: during large sequential I/O without
free-behind, the daemon and the I/O process fight for the CPU, and the
I/O pages it frees are exactly the ones that were just read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Generator

from repro.sim.events import AnyOf
from repro.sim.stats import StatSet
from repro.vfs.vnode import PutFlags

if TYPE_CHECKING:  # pragma: no cover
    from repro.cpu import Cpu
    from repro.sim.engine import Engine
    from repro.sim.request import RequestRegistry
    from repro.vm.pagecache import PageCache


@dataclass(frozen=True)
class PageoutParams:
    """Clock tuning, in pages (fractions of total memory by default)."""

    #: Run the clock when freemem drops below this many pages.
    lotsfree: int
    #: Distance between the front (clearing) and back (freeing) hands.
    handspread: int
    #: Pages examined per burst before letting other processes run.
    scan_batch: int = 64
    #: Pause between bursts (lets the I/O process make progress).
    breath: float = 0.002
    #: Once woken, keep freeing until freemem >= lotsfree + hysteresis,
    #: so each wakeup does a batch of work rather than one page's worth.
    hysteresis: int = 64

    @classmethod
    def for_memory(cls, total_pages: int) -> "PageoutParams":
        """SunOS-flavoured defaults: lotsfree = 1/16 of memory."""
        return cls(
            lotsfree=max(4, total_pages // 16),
            handspread=max(8, total_pages // 4),
        )


class PageoutDaemon:
    """The two-handed clock over all page frames."""

    def __init__(self, engine: "Engine", cache: "PageCache", cpu: "Cpu",
                 params: PageoutParams, registry: "RequestRegistry"):
        self.engine = engine
        self.cache = cache
        self.cpu = cpu
        #: Each dirty-page push the daemon starts is accounted as a
        #: "pageout" request (the kernel's own I/O shows up in the same
        #: per-kind latency report as user syscalls).
        self.registry = registry
        self.params = params
        if params.handspread >= cache.total_pages:
            raise ValueError("handspread must be smaller than memory")
        self.stats = StatSet("pageout")
        self._front = 0  # front hand frame index
        self.cache.low_water = self.params.lotsfree
        self._proc = engine.process(self._run(), name="pageout")

    # -- the clock ------------------------------------------------------------
    @property
    def needs_to_run(self) -> bool:
        return self.cache.freemem < self.params.lotsfree

    @property
    def _target_reached(self) -> bool:
        return self.cache.freemem >= self.params.lotsfree + self.params.hysteresis

    def _run(self) -> Generator[Any, Any, None]:
        cache = self.cache
        while True:
            if not self.needs_to_run:
                yield cache.low_memory.wait()
                continue
            self.stats.incr("wakeups")
            yield from self.cpu.work("pagedaemon", self.cpu.costs.pagedaemon_wakeup)
            while not self._target_reached:
                progress = yield from self._scan_batch()
                if self.params.breath > 0:
                    yield from self.engine.sleep(self.params.breath)
                if not progress:
                    # Nothing freeable this revolution segment: wait for
                    # in-flight writebacks or new frees rather than spin.
                    self.stats.incr("stalls")
                    yield AnyOf(self.engine, [
                        cache.memory_wanted.wait(),
                        self.engine.timeout(0.010),
                    ])

    def _scan_batch(self) -> Generator[Any, Any, bool]:
        """Advance both hands ``scan_batch`` frames; True if anything freed
        or queued for writeback."""
        cache = self.cache
        frames = cache.frames
        n = len(frames)
        # Read once what no frame of the burst can change: the loop below is
        # the simulator's most-run body outside the engine.
        params = self.params
        handspread = params.handspread
        target = params.lotsfree + params.hysteresis
        incr = self.stats.incr
        work = self.cpu.work
        scan_cost = 2 * self.cpu.costs.pagedaemon_scan
        hand = self._front
        progress = False
        for _ in range(params.scan_batch):
            front = frames[hand]
            back = frames[(hand - handspread) % n]
            hand = self._front = (hand + 1) % n
            incr("examined", 2)
            yield from work("pagedaemon", scan_cost)
            # Front hand: clear the reference bit.  A never-used frame
            # (None) is free and anonymous.
            if front is not None and not front.free and not front.locked:
                front.referenced = False
            # Back hand: free if still unreferenced.
            if (back is None or back.free or back.locked or not back.named
                    or back.referenced):
                continue
            if back.dirty:
                progress = True
                incr("pushed_dirty")
                flags = PutFlags(async_=True, free=True)
                req = self.registry.start("pageout", origin="pagedaemon",
                                          offset=back.offset)
                try:
                    yield from back.vnode.putpage(
                        back.offset, cache.page_size, flags, req=req
                    )
                except BaseException as exc:
                    req.complete(error=exc)
                    raise
                req.complete()
            else:
                progress = True
                incr("freed")
                cache.free(back)
            if cache.freemem >= target:
                break
        return progress
