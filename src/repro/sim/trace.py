"""Event tracing and hierarchical spans.

The paper's figures 3, 6 and 7 are *traces*: the sequence of actions taken by
``ufs_getpage``/``ufs_putpage`` as pages are faulted in order.  We reproduce
them by recording tagged trace records and rendering them as the same style
of per-page box diagram.

On top of the flat records the tracer also collects **spans**: timed,
hierarchical intervals that let a completed I/O request show its whole
lifecycle as one tree — syscall → getpage → cluster decision → queue wait →
rotational service.  Spans carry a parent id, begin/end simulated times, and
free-form fields; :meth:`Tracer.to_jsonl` renders both records and spans
as JSON lines for offline analysis (``python -m repro trace jsonl``).

Hot-path discipline: the keyword dict for ``emit``/``span_begin`` is built
by the *caller* before the tracer can decline it, so instrumentation on hot
paths must guard on :attr:`Tracer.enabled` first::

    if trace.enabled:
        trace.emit("getpage_sync", offset=offset, bytes=nbytes)

With the guard (and the early returns inside the tracer itself) a disabled
tracer costs one attribute check per site.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import count
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine

#: Schema tag written as the first line of every JSONL export, so offline
#: consumers (``python -m repro trace --trace-jsonl``) can refuse traces
#: from an incompatible writer instead of mis-parsing them.
TRACE_SCHEMA = "repro-trace/v1"

#: One JSONL line.  ``json.dumps(..., default=str)`` would build this same
#: encoder afresh for every line.
_encode_line = json.JSONEncoder(default=str).encode


@dataclass(frozen=True)
class TraceRecord:
    """One traced occurrence: a time, a tag, and free-form fields."""

    time: float
    tag: str
    fields: dict[str, Any] = field(default_factory=dict)

    def __getattr__(self, name: str) -> Any:
        try:
            return self.fields[name]
        except KeyError:
            raise AttributeError(name) from None

    def describe(self) -> str:
        """Human-readable one-liner."""
        inner = " ".join(f"{k}={v}" for k, v in self.fields.items())
        return f"[{self.time * 1e3:10.3f}ms] {self.tag} {inner}"


@dataclass
class Span:
    """One timed interval in a request's lifecycle.

    ``parent_id`` links spans into a tree (None = a root, e.g. one syscall);
    ``end`` stays None while the span is open.  All times are simulated
    seconds.
    """

    id: int
    name: str
    parent_id: int | None
    begin: float
    end: float | None = None
    fields: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Span length in simulated seconds (0 while still open)."""
        return 0.0 if self.end is None else self.end - self.begin

    def describe(self) -> str:
        """Human-readable one-liner (no tree context)."""
        inner = " ".join(f"{k}={v}" for k, v in self.fields.items())
        dur = "open" if self.end is None else f"{self.duration * 1e3:.3f}ms"
        return f"{self.name} [{self.begin * 1e3:.3f}ms +{dur}] {inner}".rstrip()


class Tracer:
    """Collects :class:`TraceRecord` and :class:`Span` objects.

    Tracing is off by default (``enabled=False``) so the hot paths pay only
    one attribute check; see the module docstring for the call-site guard
    that keeps even the kwargs construction off the disabled path.
    """

    def __init__(self, engine: "Engine", enabled: bool = False):
        self.engine = engine
        self.enabled = enabled
        self.records: list[TraceRecord] = []
        self.spans: list[Span] = []
        # Span ids are *per tracer* (they used to come from a module-global
        # counter, which leaked across System instances in one process and
        # made same-seed exports differ byte-for-byte until renumbered).
        self._span_ids = count(1)
        # Lazy tree indexes, maintained incrementally on every append so
        # span_children/span_tree/render_spans never rescan self.spans
        # (which was O(n) per node, O(n^2) per tree walk).
        self._by_id: dict[int, Span] = {}
        self._children: dict[int, list[Span]] = {}
        self._roots: list[Span] = []

    def _add_span(self, span: Span) -> Span:
        """Append one span and keep the tree indexes current (O(1))."""
        self.spans.append(span)
        self._by_id[span.id] = span
        if span.parent_id is None:
            self._roots.append(span)
        else:
            self._children.setdefault(span.parent_id, []).append(span)
        return span

    def span_by_id(self, span_id: int) -> Span:
        """The span with ``span_id`` (KeyError if absent)."""
        return self._by_id[span_id]

    def emit(self, tag: str, **fields: Any) -> None:
        """Record an occurrence at the current simulated time.

        The ``enabled`` check is the very first statement so a disabled
        tracer returns before building the record —
        but note the kwargs dict itself is built by the caller; guard hot
        call sites on :attr:`enabled` (module docstring).
        """
        if not self.enabled:
            return
        self.records.append(TraceRecord(self.engine.now, tag, fields))

    # -- spans ---------------------------------------------------------------
    def span_begin(self, name: str, parent: "Span | int | None" = None,
                   **fields: Any) -> Span | None:
        """Open a span at the current simulated time.

        Returns None when tracing is disabled; :meth:`span_end` accepts the
        None so callers need no branches of their own.
        """
        if not self.enabled:
            return None
        parent_id = parent.id if isinstance(parent, Span) else parent
        span = Span(next(self._span_ids), name, parent_id, self.engine.now,
                    fields=fields)
        return self._add_span(span)

    def span_end(self, span: Span | None, **fields: Any) -> None:
        """Close a span at the current simulated time (no-op on None)."""
        if span is None:
            return
        span.end = self.engine.now
        if fields:
            span.fields.update(fields)

    def record_span(self, name: str, begin: float, end: float,
                    parent: "Span | int | None" = None,
                    **fields: Any) -> Span | None:
        """Record an already-completed interval (e.g. from buf timestamps)."""
        if not self.enabled:
            return None
        parent_id = parent.id if isinstance(parent, Span) else parent
        span = Span(next(self._span_ids), name, parent_id, begin, end, fields)
        return self._add_span(span)

    def span_roots(self) -> list[Span]:
        """Spans with no parent, in recording (= begin) order."""
        return list(self._roots)

    def span_children(self, parent: "Span | int") -> list[Span]:
        """Direct children of ``parent``, in recording order.

        Served from the incrementally-maintained parent index: O(children),
        never a rescan of every span.
        """
        pid = parent.id if isinstance(parent, Span) else parent
        return list(self._children.get(pid, ()))

    def children_index(self) -> dict[int, list[Span]]:
        """The live parent-id -> children index (read-only by convention).

        Analyzers (:mod:`repro.obs.critpath`, :mod:`repro.obs.export`) walk
        thousands of trees; handing them the index directly avoids even the
        per-call list copies of :meth:`span_children`.
        """
        return self._children

    def span_tree(self, root: "Span | int") -> list[tuple[int, Span]]:
        """The subtree under ``root`` as (depth, span) pairs, preorder."""
        root_span = root if isinstance(root, Span) else self._by_id[root]
        out: list[tuple[int, Span]] = []
        children = self._children
        stack: list[tuple[int, Span]] = [(0, root_span)]
        while stack:
            depth, span = stack.pop()
            out.append((depth, span))
            stack.extend(
                (depth + 1, child)
                for child in reversed(children.get(span.id, ()))
            )
        return out

    def open_spans(self) -> list[Span]:
        """Spans never closed (end is None), in recording order."""
        return [s for s in self.spans if s.end is None]

    def trace_end(self) -> float:
        """The last instant the trace knows about.

        The maximum over record times and span begin/end times — the clamp
        target analyzers use for spans that were still open when tracing
        stopped.
        """
        end = 0.0
        for rec in self.records:
            end = max(end, rec.time)
        for span in self.spans:
            end = max(end, span.begin if span.end is None else span.end)
        return end

    def render_spans(self, root: "Span | int | None" = None) -> str:
        """An indented text tree of spans (one root, or all roots)."""
        roots = [root] if root is not None else self.span_roots()
        lines: list[str] = []
        for r in roots:
            for depth, span in self.span_tree(r):
                lines.append("  " * depth + span.describe())
        return "\n".join(lines)

    # -- export ---------------------------------------------------------------
    def to_jsonl(self) -> str:
        """One meta line, then records, then spans, as JSON lines.

        The meta line carries the schema tag (:data:`TRACE_SCHEMA`) and the
        record/span counts; :func:`load_jsonl` checks both on the way back
        in, so a file cut short at a line boundary is refused.
        With per-tracer span ids (and per-registry request / per-engine buf
        ids) two same-seed runs export byte-identically, with no
        renumbering step.
        """
        lines = [_encode_line({"type": "meta", "schema": TRACE_SCHEMA,
                               "records": len(self.records),
                               "spans": len(self.spans)})]
        lines.extend(
            _encode_line({"type": "record", "time": r.time, "tag": r.tag,
                          **r.fields})
            for r in self.records
        )
        lines.extend(
            _encode_line({"type": "span", "id": s.id, "parent": s.parent_id,
                          "name": s.name, "begin": s.begin, "end": s.end,
                          **s.fields})
            for s in sorted(self.spans, key=lambda s: (s.begin, s.id))
        )
        return "\n".join(lines)

    def clear(self) -> None:
        """Drop all recorded history (records and spans); ids restart."""
        self.records.clear()
        self.spans.clear()
        self._by_id.clear()
        self._children.clear()
        self._roots.clear()
        self._span_ids = count(1)

    def select(self, *tags: str) -> list[TraceRecord]:
        """All records whose tag is one of ``tags``, in time order."""
        wanted = set(tags)
        return [r for r in self.records if r.tag in wanted]

    def render(self, predicate: Callable[[TraceRecord], bool] | None = None) -> str:
        """Render matching records one per line (for logs and debugging)."""
        records = self.records if predicate is None else [r for r in self.records if predicate(r)]
        return "\n".join(rec.describe() for rec in records)


def load_jsonl(text: str) -> Tracer:
    """Rebuild a :class:`Tracer` from a :meth:`Tracer.to_jsonl` document.

    The returned tracer is an offline artifact: it carries a private idle
    engine, is disabled (appending to an ingested trace would corrupt the
    counts), and exists so every analyzer — critical path, exporters,
    attribution — works identically on a live tracer and a file.

    Raises ``ValueError`` on a missing/incompatible schema line, on record
    or span counts that differ from the ones the schema line declares (a
    truncated file), or on a span whose parent never appears.
    """
    from repro.sim.engine import Engine

    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty trace document")

    def parse(line: str) -> dict:
        try:
            obj = json.loads(line)
        except ValueError as exc:  # e.g. a file cut mid-line
            raise ValueError(
                f"unparseable trace line {line[:60]!r}: {exc}") from None
        if not isinstance(obj, dict):
            raise ValueError(f"trace line {line[:60]!r} is not an object")
        return obj

    meta = parse(lines[0])
    if meta.get("type") != "meta" or meta.get("schema") != TRACE_SCHEMA:
        raise ValueError(
            f"not a {TRACE_SCHEMA} trace (first line: {lines[0][:80]!r})")
    tracer = Tracer(Engine(), enabled=False)
    max_id = 0
    for line in lines[1:]:
        obj = parse(line)
        kind = obj.pop("type", None)
        if kind == "record":
            tracer.records.append(
                TraceRecord(obj.pop("time"), obj.pop("tag"), obj))
        elif kind == "span":
            span = Span(obj.pop("id"), obj.pop("name"), obj.pop("parent"),
                        obj.pop("begin"), obj.pop("end"), obj)
            max_id = max(max_id, span.id)
            tracer._add_span(span)
        else:
            raise ValueError(f"unknown trace line type {kind!r}")
    for kind, found in (("records", len(tracer.records)),
                        ("spans", len(tracer.spans))):
        if meta.get(kind) != found:
            raise ValueError(
                f"truncated or padded trace: schema line declares "
                f"{meta.get(kind)} {kind}, found {found}")
    for span in tracer.spans:
        if span.parent_id is not None and span.parent_id not in tracer._by_id:
            raise ValueError(f"span {span.id} has unknown parent "
                             f"{span.parent_id}")
    tracer._span_ids = count(max_id + 1)
    return tracer
