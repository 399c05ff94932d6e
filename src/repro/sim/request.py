"""The I/O request spine: one context object per logical I/O.

The paper's argument is about what happens to *one* logical read or write
as it crosses layers — getpage/putpage clustering, bmap contiguity, driver
queueing, rotational service.  :class:`IORequest` is that request made
first-class: created at the syscall boundary, threaded down through the
vnode layer, the page cache, and the driver, so a completed request can
show its entire lifecycle as one span tree ("this 8 KB user read became one
56 KB cluster I/O that waited 3 ms in the queue").

Two costs are kept strictly separate:

* **accounting** (always on): request counts, byte counts, per-kind latency
  histograms, aggregated by :class:`RequestRegistry` — cheap enough for
  every benchmark run;
* **tracing** (opt-in): hierarchical :class:`~repro.sim.trace.Span` records
  via the tracer, enabled only when someone wants the tree.

Every layer below the syscall accepts ``req=None`` so direct callers (tests,
internal maintenance I/O) pay nothing and need no ceremony.
"""

from __future__ import annotations

from itertools import count
from typing import TYPE_CHECKING, Any

from repro.sim.stats import Histogram, StatSet, TimeWeighted

if TYPE_CHECKING:  # pragma: no cover
    from repro.disk.buf import Buf
    from repro.sim.engine import Engine
    from repro.sim.trace import Span, Tracer

#: Fallback id source for bare IORequests built without a registry (tests,
#: ad-hoc instrumentation).  Registry-created requests draw from the
#: registry's own counter so same-seed runs number requests identically.
_request_ids = count(1)


class IORequest:
    """One logical I/O request, from syscall entry to completion.

    Layers open child spans with :meth:`begin`/:meth:`end` (no-ops unless
    the tracer is enabled); the driver reports each finished disk transfer
    through :meth:`io_done`, which both counts it and records its
    queue-wait/service spans under whatever span issued the buf.
    """

    __slots__ = (
        "id", "kind", "origin", "engine", "tracer", "registry",
        "created_at", "finished_at", "error", "ios", "bytes",
        "root", "_stack", "fields",
    )

    def __init__(self, engine: "Engine", kind: str,
                 tracer: "Tracer | None" = None,
                 registry: "RequestRegistry | None" = None,
                 origin: str = "", **fields: Any):
        self.id = next(registry._ids if registry is not None
                       else _request_ids)
        self.kind = kind
        self.origin = origin
        self.engine = engine
        self.tracer = tracer
        self.registry = registry
        self.created_at = engine.now
        self.finished_at: float | None = None
        self.error: BaseException | None = None
        #: Disk transfers (bufs) completed on behalf of this request.
        self.ios = 0
        #: Bytes moved by those transfers.
        self.bytes = 0
        self.fields = fields
        self.root: "Span | None" = None
        self._stack: list["Span"] = []
        if tracer is not None and tracer.enabled:
            self.root = tracer.span_begin(kind, request=self.id,
                                          origin=origin, **fields)
            if self.root is not None:
                self._stack.append(self.root)

    # -- spans ----------------------------------------------------------------
    @property
    def current_span(self) -> "Span | None":
        """The innermost open span (the parent for new child spans/bufs)."""
        return self._stack[-1] if self._stack else None

    def begin(self, name: str, **fields: Any) -> "Span | None":
        """Open a child span under the innermost open one.

        Returns None (and records nothing) when tracing is off, so hot
        paths pay one attribute check; pass the result to :meth:`end`.
        """
        tracer = self.tracer
        if tracer is None or not tracer.enabled:
            return None
        span = tracer.span_begin(name, parent=self.current_span, **fields)
        if span is not None:
            self._stack.append(span)
        return span

    def end(self, span: "Span | None", **fields: Any) -> None:
        """Close a span opened with :meth:`begin` (no-op on None)."""
        if span is None:
            return
        assert self.tracer is not None
        self.tracer.span_end(span, **fields)
        if span in self._stack:
            # Normally the top of the stack; tolerate out-of-order closes
            # from interleaved async completions.
            self._stack.remove(span)

    # -- driver feedback ---------------------------------------------------------
    def io_done(self, buf: "Buf") -> None:
        """Account one completed disk transfer issued for this request.

        Called from the buf's completion (interrupt context); records the
        disk_io → queue_wait/service subtree when tracing is enabled.
        """
        self.ios += 1
        self.bytes += buf.nbytes
        tracer = self.tracer
        if tracer is None or not tracer.enabled:
            return
        finished = buf.finished_at if buf.finished_at is not None else self.engine.now
        started = buf.started_at if buf.started_at is not None else finished
        member = getattr(buf, "member", None)
        io_span = tracer.record_span(
            "disk_io" if member is None else f"disk_io[m{member}]",
            buf.issued_at, finished, parent=buf.parent_span,
            op=buf.op.value, sector=buf.sector, nsectors=buf.nsectors,
            error=(buf.error.__class__.__name__ if buf.error is not None else None),
        )
        tracer.record_span("queue_wait", buf.issued_at, started, parent=io_span)
        service = tracer.record_span("service", started, finished,
                                     parent=io_span)
        # The disk accounted how much of the service was mechanical
        # positioning vs. data movement; lay those out as consecutive
        # child intervals (the exact interleaving within the service is
        # not recorded — only the totals matter for attribution).
        seek_rot = min(buf.seek_rot_time, finished - started)
        if seek_rot > 0:
            tracer.record_span("rotation_seek", started, started + seek_rot,
                               parent=service)
        xfer = min(buf.xfer_time, finished - started - seek_rot)
        if xfer > 0:
            tracer.record_span("transfer", started + seek_rot,
                               started + seek_rot + xfer, parent=service)

    # -- completion ---------------------------------------------------------------
    def complete(self, error: BaseException | None = None) -> None:
        """Close the request (idempotent); feeds the registry's histograms.

        A request must finish with no child span still open — every layer
        that ``begin``\\ s a span owns a ``finally`` that ``end``\\ s it, even
        on error paths.  Leftovers are reported to the registry's
        ``span_leaks`` ledger, which the sanitizer's span-balance check
        turns into a hard failure.
        """
        if self.finished_at is not None:
            return
        self.finished_at = self.engine.now
        self.error = error
        if self.tracer is not None and self.root is not None:
            leaked = [s for s in self._stack if s is not self.root]
            if leaked and self.registry is not None:
                self.registry._span_leaked(self, leaked)
            self.tracer.span_end(
                self.root, ios=self.ios, bytes=self.bytes,
                error=(error.__class__.__name__ if error is not None else None),
            )
            self._stack.clear()
        if self.registry is not None:
            self.registry._finished(self)

    @property
    def elapsed(self) -> float:
        """Syscall-to-completion latency (so far, if still open)."""
        end = self.finished_at if self.finished_at is not None else self.engine.now
        return end - self.created_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.finished_at is not None else "open"
        return f"<IORequest#{self.id} {self.kind} {state} ios={self.ios}>"


class RequestRegistry:
    """Creates requests and aggregates their lifecycle statistics.

    One registry per machine (``system.requests``).  Per-kind latency
    histograms and an in-flight gauge are always maintained; span recording
    rides on the tracer's enabled flag.
    """

    def __init__(self, engine: "Engine", tracer: "Tracer | None" = None):
        self.engine = engine
        self.tracer = tracer
        #: Per-registry request ids (one registry per machine): two
        #: same-seed machines in one process number their requests the
        #: same way, which trace-export byte-determinism depends on.
        self._ids = count(1)
        self.stats = StatSet("requests")
        self.inflight = TimeWeighted(engine, 0)
        self.latency: dict[str, Histogram] = {}
        #: Requests started but not yet completed, by id — the sanitizer's
        #: span-balance check requires this to be empty at idle.
        self.open: dict[int, IORequest] = {}
        #: (request id, kind, leaked span names) for every request that
        #: completed with a child span still open; must stay empty.
        self.span_leaks: list[tuple[int, str, tuple[str, ...]]] = []

    def start(self, kind: str, origin: str = "", **fields: Any) -> IORequest:
        """Open a request of ``kind`` at the current simulated time."""
        self.stats.incr("started")
        self.stats.incr(f"{kind}_started")
        self.inflight.add(1)
        req = IORequest(self.engine, kind, tracer=self.tracer, registry=self,
                        origin=origin, **fields)
        self.open[req.id] = req
        return req

    def _finished(self, req: IORequest) -> None:
        self.open.pop(req.id, None)
        self.inflight.add(-1)
        self.stats.incr("completed")
        self.stats.incr("ios", req.ios)
        self.stats.incr("bytes", req.bytes)
        if req.error is not None:
            self.stats.incr("errors")
            self.stats.incr(f"{req.kind}_errors")
        hist = self.latency.get(req.kind)
        if hist is None:
            hist = self.latency[req.kind] = Histogram(f"{req.kind}_latency")
        hist.observe(req.elapsed)

    def _span_leaked(self, req: IORequest, leaked: "list[Any]") -> None:
        self.stats.incr("span_leaks")
        self.span_leaks.append(
            (req.id, req.kind, tuple(s.name for s in leaked))
        )

    def register_metrics(self, registry) -> None:
        """Report request accounting into a system MetricsRegistry.

        Latency histograms are per-kind and appear lazily, so they go in
        as a callable the registry re-renders at each snapshot."""
        registry.register("requests", self.stats)
        registry.register("requests.inflight", self.inflight)
        registry.register("requests.latency", lambda: {
            kind: h.summary() for kind, h in sorted(self.latency.items())})
