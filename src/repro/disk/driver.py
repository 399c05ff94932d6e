"""The disk driver: queueing, disksort, coalescing, completion interrupts.

``strategy()`` is the kernel entry point: it enqueues a buf and returns
immediately (asynchronous by construction; synchronous callers ``yield
buf.done``).  A driver process services the queue one request at a time in
``disksort`` (one-way elevator / C-LOOK) order.

Two paper-relevant options:

* ``coalesce=True`` enables *driver clustering*, the alternative the paper
  rejected: adjacent requests already in the queue are merged into one larger
  request.  It helps writes (many can be queued) but not reads (at most the
  primary and one read-ahead are ever outstanding) — the benchmarks show this
  emerging from the model.
* bufs with ``ordered=True`` (the future-work B_ORDER flag) act as barriers:
  disksort may not move later requests ahead of them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.disk.buf import Buf, BufOp
from repro.disk.disk import RotationalDisk
from repro.disk.sched import Scheduler, make_scheduler
from repro.errors import (
    ChecksumError, DiskError, DiskTimeoutError, MediaError,
    TransientDiskError,
)
from repro.sim.events import Event
from repro.sim.resources import Signal
from repro.units import KB, MS

if TYPE_CHECKING:  # pragma: no cover
    from repro.cpu import Cpu
    from repro.obs.metrics import MetricsRegistry
    from repro.sim.engine import Engine


class DiskQueue:
    """The driver queue: scheduler-ordered sweeps separated by barriers.

    The queue owns the barrier structure (bufs with B_ORDER set may never be
    reordered around); the order *within* a sweep is delegated to a pluggable
    :class:`~repro.disk.sched.Scheduler` — the elevator (``disksort``) by
    default, or any policy passed in (by name or as an instance).
    """

    def __init__(self, scheduler: "Scheduler | str" = "elevator"):
        if isinstance(scheduler, str):
            scheduler = make_scheduler(scheduler)
        self.scheduler = scheduler
        self._segments: list[tuple[str, list[Buf]]] = []
        self._length = 0

    def __len__(self) -> int:
        return self._length

    def insert(self, buf: Buf) -> None:
        """Add a request, respecting scheduler order and barriers."""
        self._length += 1
        if buf.ordered:
            self._segments.append(("barrier", [buf]))
            return
        if not self._segments or self._segments[-1][0] != "sweep":
            self._segments.append(("sweep", []))
        self.scheduler.insert(self._segments[-1][1], buf)

    def pop(self, last_sector: int, now: float = 0.0) -> Buf | None:
        """Next request per the active scheduler, or None.

        ``now`` is the current simulated time, consumed by time-aware
        policies (the deadline scheduler); the pure elevator ignores it.
        """
        while self._segments and not self._segments[0][1]:
            self._segments.pop(0)
        if not self._segments:
            return None
        kind, seg = self._segments[0]
        if kind == "barrier":
            buf = seg.pop(0)
        else:
            buf = seg.pop(self.scheduler.select(seg, last_sector, now))
        self._length -= 1
        self.scheduler.forget(buf)
        return buf

    def find_adjacent(self, buf: Buf, max_sectors: int) -> Buf | None:
        """A queued buf adjacent to ``buf`` that could be coalesced with it.

        Only the last (open) sweep is searched — merging across a barrier or
        into an already-dispatched sweep would reorder requests.  The scan is
        linear because not every scheduler keeps the sweep sector-sorted.
        """
        if not self._segments or self._segments[-1][0] != "sweep":
            return None
        for cand in self._segments[-1][1]:
            if cand.op is not buf.op or cand.ordered:
                continue
            if not cand.adjacent_to(buf):
                continue
            if cand.nsectors + buf.nsectors > max_sectors:
                continue
            return cand
        return None

    def remove(self, buf: Buf) -> None:
        """Remove a specific queued buf (used when coalescing)."""
        for _, seg in self._segments:
            if buf in seg:
                seg.remove(buf)
                self._length -= 1
                # The buf leaves the queue without going through pop():
                # drop its scheduler state or the entry leaks forever.
                self.scheduler.forget(buf)
                return
        raise ValueError("buf not in queue")


class BlockDevice:
    """The books of anything the kernel calls ``strategy(buf)`` on — one
    disk's driver or a whole volume: what was accepted and has not
    completed, the request counters (at ``ns``) and the queue
    gauges/histograms (at ``ns.*``)."""

    def __init__(self, engine: "Engine", metrics: "MetricsRegistry",
                 ns: str, name: str):
        self.engine = engine
        self.name = name
        #: Bufs accepted by strategy() whose completion has not run yet,
        #: by buf id.  Coalesced parents are internal (never registered);
        #: their children stay outstanding until they individually
        #: complete, so split-retry cannot lose one.  Empty at idle
        #: (:meth:`_check_books`).
        self.outstanding: dict[int, Buf] = {}
        self.stats = metrics.counters(ns)
        self.queue_depth = metrics.gauge(f"{ns}.queue_depth", 0)
        #: Per-request time from strategy() to entering service.
        self.wait_hist = metrics.histogram(f"{ns}.wait")
        #: Per-request service time (seeks, rotation, transfer, recovery).
        self.service_hist = metrics.histogram(f"{ns}.service")
        #: Bytes of buffered data sitting in the queue or in service —
        #: for writes, this is memory pinned by in-flight I/O.
        self.queue_bytes = metrics.gauge(f"{ns}.queue_bytes", 0)

    def _accept(self, buf: Buf) -> None:
        """Book a buf into the outstanding table as strategy() takes it."""
        self.stats.incr("requests")
        self.stats.incr("bytes", buf.nbytes)
        self.stats.incr("tracked_issued")
        self.outstanding[buf.id] = buf
        self.queue_bytes.add(buf.nbytes)

    def _settle(self, buf: Buf) -> None:
        """Retire a buf from the outstanding table exactly once.

        Coalesced parents were never registered (strategy saw only their
        children), so only tracked bufs count toward the balance.
        """
        if self.outstanding.pop(buf.id, None) is not None:
            self.stats.incr("tracked_completed")

    def _check_books(self, point: str, fail: Callable[..., None], label: str,
                     queued: int, busy: bool) -> None:
        """The sanitizer's ``buf_balance`` check, given what the device has
        ``queued`` and whether it is ``busy``: quiesced, nothing is queued
        or in service, and every buf strategy() accepted completed exactly
        once — coalescing and split-retry included."""
        if not self.idle:
            fail("buf_balance", f"at {point}: quiesced with {label} busy "
                 f"(queue={queued}, busy={busy})")
        if self.outstanding:
            buf = next(iter(self.outstanding.values()))
            fail("buf_balance",
                 f"at {point}: {len(self.outstanding)} buf(s) issued to "
                 f"{label} never completed; first leak: {buf!r} "
                 f"(owner={buf.owner!r})",
                 request=getattr(buf, "request", None))
        issued = self.stats["tracked_issued"]
        done = self.stats["tracked_completed"]
        if issued != done:
            fail("buf_balance",
                 f"at {point}: {label}: {issued:g} bufs issued but {done:g} "
                 "completions recorded (a buf completed twice or vanished)")

    def issue_flush(self, owner: str = "flush",
                    request: "Any | None" = None) -> Buf | None:
        """Queue a FLUSH command behind everything pending.

        Returns the flush buf (wait on ``buf.done`` for the durability
        point), or None when the disk has no volatile write cache — the
        stack is write-through and every completed write is already
        durable, so the command would be a no-op.
        """
        if self.disk.write_cache is None:
            return None
        buf = Buf.flush(self.engine, owner=owner)
        if request is not None:
            buf.request = request
            buf.parent_span = getattr(request, "current_span", None)
        self.stats.incr("flushes")
        return self.strategy(buf)


class DiskDriver(BlockDevice):
    """Queue + service process + completion interrupts for one disk."""

    #: Largest request driver clustering merges queued neighbours into.
    COALESCE_LIMIT = 56 * KB
    #: Bounded retries for transient errors and detected timeouts;
    #: attempt n backs off for RETRY_BACKOFF * 2**(n-1).
    MAX_RETRIES = 4
    RETRY_BACKOFF = 2 * MS
    #: Settle time charged when a bad sector is revectored to a spare.
    REMAP_PENALTY = 5 * MS

    def __init__(self, engine: "Engine", metrics: "MetricsRegistry",
                 ns: str, disk: RotationalDisk,
                 cpu: "Cpu | None" = None,
                 coalesce: bool = False,
                 scheduler: "Scheduler | str" = "elevator",
                 name: str = "sd0"):
        super().__init__(engine, metrics, ns, name)
        self.disk = disk
        self.cpu = cpu
        self.coalesce = coalesce
        self.coalesce_limit_sectors = (self.COALESCE_LIMIT
                                       // disk.geometry.sector_size)
        #: Bad sectors this driver has revectored: sector -> spare slot.
        #: The drive substitutes the spare transparently, so the sector
        #: keeps its logical address; the table exists for introspection
        #: and mirrors a real drive's grown-defect list.
        self.remap_table: dict[int, int] = {}
        self.queue = DiskQueue(scheduler=scheduler)
        self._work = Signal(engine, name=f"{name}.work")
        self._drain_waiters: list[Event] = []
        #: True while a request is in service.
        self.busy = False
        self._last_sector = 0
        engine.process(self._run(), name=f"{name}.driver")

    @property
    def scheduler_name(self) -> str:
        """Name of the active queue scheduler (for reports)."""
        return self.queue.scheduler.name

    # -- kernel-facing API ---------------------------------------------------
    def strategy(self, buf: Buf) -> Buf:
        """Enqueue a request.  Returns the buf actually queued (which may be
        a coalesced parent absorbing this one)."""
        self._accept(buf)
        if self.coalesce and not buf.ordered:
            merged = self._try_coalesce(buf)
            if merged is not None:
                self.queue_depth.set(len(self.queue) + (1 if self.busy else 0))
                self._work.fire()
                return merged
        self.queue.insert(buf)
        self.queue_depth.set(len(self.queue) + (1 if self.busy else 0))
        self._work.fire()
        return buf

    @property
    def idle(self) -> bool:
        """True when nothing is queued or in service."""
        return not self.busy and len(self.queue) == 0

    def check_buf_balance(self, point: str, fail: Callable[..., None],
                          label: str = "driver") -> None:
        """The sanitizer's ``buf_balance`` check of this driver."""
        self._check_books(point, fail, label, len(self.queue), self.busy)

    def drain(self) -> Event:
        """An event that triggers once the driver goes idle."""
        ev = Event(self.engine, name=f"{self.name}.drain")
        if self.idle:
            ev.succeed()
        else:
            self._drain_waiters.append(ev)
        return ev

    # -- coalescing (driver clustering, the rejected alternative) -------------
    def _try_coalesce(self, buf: Buf) -> Buf | None:
        other = self.queue.find_adjacent(buf, self.coalesce_limit_sectors)
        if other is None:
            return None
        self.queue.remove(other)
        first, second = (other, buf) if other.sector < buf.sector else (buf, other)
        parent = Buf(
            self.engine, buf.op, first.sector,
            first.nsectors + second.nsectors,
            data=(first.data or b"") + (second.data or b"") if buf.op is BufOp.WRITE else None,
            async_=first.async_ and second.async_,
            owner="coalesced",
        )
        for child in (first, second):
            if child.children:
                parent.children.extend(child.children)
            else:
                parent.children.append(child)
        self.stats.incr("coalesced")
        self.queue.insert(parent)
        return parent

    # -- service loop ----------------------------------------------------------
    def _run(self):
        while True:
            buf = self.queue.pop(self._last_sector, now=self.engine.now)
            if buf is None:
                if self._drain_waiters:
                    waiters, self._drain_waiters = self._drain_waiters, []
                    for ev in waiters:
                        ev.succeed()
                yield self._work.wait()
                continue
            self.busy = True
            self.queue_depth.set(len(self.queue) + 1)
            service_start = self.engine.now
            self.wait_hist.observe(service_start - buf.issued_at)
            error = yield from self._service_with_recovery(buf)
            self.service_hist.observe(self.engine.now - service_start)
            self._last_sector = buf.end_sector
            if self.cpu is not None:
                intr = self.cpu.interrupt_charge("interrupt", self.cpu.costs.interrupt)
                if self.disk.integrity is not None and not buf.is_flush:
                    # Checksumming is honest CPU work: verifying a read or
                    # stamping a write costs per-fragment cycles, charged
                    # at completion like the interrupt itself.
                    nfrags = buf.nsectors // self.disk.integrity.frag_sectors
                    intr += self.cpu.interrupt_charge(
                        "checksum", nfrags * self.cpu.costs.checksum_frag)
                if intr > 0:
                    yield from self.engine.sleep(intr)
            if error is not None and len(buf.children) > 1:
                # A coalesced cluster failed as a whole: dissolve it and
                # retry the original requests individually, so one bad
                # sector cannot fail a whole 56 KB cluster.  The children's
                # queued bytes stay accounted until they complete.
                self._split_retry(buf)
            else:
                self._complete(buf, error)
                self.queue_bytes.add(-buf.nbytes)
            self.busy = False
            self.queue_depth.set(len(self.queue))

    def _service_with_recovery(self, buf: Buf):
        """Service ``buf``, absorbing recoverable faults.

        Transient errors and detected controller timeouts are retried up to
        :attr:`MAX_RETRIES` times with exponential backoff; hard media errors
        are revectored to a spare (the bad-block remap table) and retried.
        Returns None on success or the unrecoverable error.
        """
        attempt = 0
        cs_attempts = 0
        while True:
            try:
                yield from self.disk.service(buf)
                return None
            except MediaError as exc:
                self.stats.incr("media_errors")
                spare = None
                plan = self.disk.fault_plan
                if exc.sector is not None and plan is not None:
                    spare = plan.remap(exc.sector)
                if spare is None:
                    return exc  # unremappable: hard failure
                self.remap_table[exc.sector] = spare
                self.stats.incr("remaps")
                yield from self.engine.sleep(self.REMAP_PENALTY)
            except (TransientDiskError, DiskTimeoutError) as exc:
                if isinstance(exc, DiskTimeoutError):
                    self.stats.incr("timeouts_detected")
                else:
                    self.stats.incr("transient_errors")
                attempt += 1
                if attempt > self.MAX_RETRIES:
                    self.stats.incr("retries_exhausted")
                    return exc
                self.stats.incr("retries")
                yield from self.engine.sleep(
                    self.RETRY_BACKOFF * (2 ** (attempt - 1)))
            except ChecksumError as exc:
                # A verification failure is worth exactly one re-read: the
                # first read may have tripped on a marginal transfer, but a
                # second identical mismatch means the *media* is wrong and
                # repair belongs to the scrubber, not the driver.
                self.stats.incr("checksum_errors")
                cs_attempts += 1
                if cs_attempts > 1:
                    return exc
                self.stats.incr("checksum_retries")
                yield from self.engine.sleep(self.RETRY_BACKOFF)
            except DiskError as exc:
                return exc  # a dead device and anything else unrecoverable

    def _split_retry(self, parent: Buf) -> None:
        """Re-queue a failed coalesced parent's children individually.

        The parent buf dissolves (nothing waits on it — strategy callers
        wait on their own request); each child is serviced and recovered on
        its own, so the failure is isolated to the sectors that caused it.
        """
        self.stats.incr("split_retries")
        for child in sorted(parent.children, key=lambda b: b.sector):
            self.queue.insert(child)

    def _complete(self, buf: Buf, error: "BaseException | None" = None) -> None:
        self.stats.incr("completions")
        if error is not None:
            self.stats.incr("errors")
        if buf.children:
            self._complete_children(buf, error)
        self._settle(buf)
        buf.complete(error)

    def _complete_children(self, parent: Buf,
                           error: "BaseException | None" = None) -> None:
        offset = 0
        for child in sorted(parent.children, key=lambda b: b.sector):
            if error is None and parent.is_read:
                assert parent.data is not None
                child.data = parent.data[offset:offset + child.nbytes]
                offset += child.nbytes
            self._settle(child)
            child.complete(error)
