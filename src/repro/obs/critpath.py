"""Critical-path extraction over completed request span trees.

:mod:`repro.obs.attrib` answers "where did the *total* time go"; this
module answers the per-request question the paper's traces are really
about: for **one** request, which chain of child spans determined its
latency?  An 8 KB read that took 40 ms spent that time *somewhere* — in
the driver queue behind the writer, on the arm, in the throttle — and
the critical path names the culprit interval by interval.

Algorithm
---------
For each closed root span the request's lifetime ``[begin, end]`` is
swept over the boundary points of its descendant spans; at every
instant the winner is chosen by **the same priority rules as the
attribution sweep** (:mod:`repro.obs.attrib`): among active *wait*
spans (``queue_wait``, ``rotation_seek``, ``transfer``,
``throttle_wait``, ``mem_wait``, ``rpc``; then ``service``) the
highest-priority one wins, ties broken by category order, then depth,
begin time, and span id so the sweep is deterministic.  When no wait
span is active the **deepest** structural span wins — that's the
request on the CPU inside ``read``/``getpage``/``cluster_read``, and
it is what gives flamegraph stacks their shape.  Instants no
descendant covers belong to the root itself.

The winning intervals, merged, are the critical path: a sequence of
:class:`Segment` objects whose durations sum to the request's latency
(the conservation invariant).  Because the winner rule reuses attrib's
priority key verbatim, the per-category blame totals equal
:func:`repro.obs.attrib.attribution_table`'s by construction — even
when concurrent sibling I/Os (clustered readahead) overlap their
waits — which :func:`verify_against_attribution` cross-checks.

Open spans
----------
A span with no end would silently contribute zero duration
(:attr:`Span.duration`) and corrupt the math.  Analyzers here never let
that happen quietly: still-open *roots* are excluded and counted
(``open_roots``), still-open *descendants* of a closed root are clamped
to the root's end and counted (``open_spans``) — both counts surface in
reports so a leaked span is a visible data-quality warning, not a
misattribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.obs.attrib import (
    _SPAN_CATEGORY, ATTRIBUTION_CATEGORIES, attribution_table,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.trace import Span, Tracer

_CATEGORY_ORDER = {name: i for i, name in enumerate(ATTRIBUTION_CATEGORIES)}


def span_category(name: str) -> str:
    """The attribution category a span name belongs to.

    Structural spans (``read``, ``getpage``, ``disk_io``,
    ``disk_io[mN]`` …) default to ``cpu``: their *own* uncovered time is
    the request computing, not a wait.
    """
    mapped = _SPAN_CATEGORY.get(name)
    return mapped[0] if mapped is not None else "cpu"


@dataclass(frozen=True)
class Segment:
    """One interval of a request's critical path.

    ``span`` is the deepest span active over ``[begin, end)`` — the root
    itself for pure-CPU stretches.
    """

    span: "Span"
    begin: float
    end: float
    depth: int

    @property
    def duration(self) -> float:
        return self.end - self.begin

    @property
    def category(self) -> str:
        return span_category(self.span.name)

    def describe(self) -> str:
        return (f"{self.span.name:<16} [{self.begin * 1e3:10.3f}ms "
                f"+{self.duration * 1e3:8.3f}ms] depth={self.depth}")


class CriticalPath:
    """The critical path of one completed request root."""

    __slots__ = ("root", "segments", "open_spans")

    def __init__(self, root: "Span", segments: "list[Segment]",
                 open_spans: int):
        self.root = root
        self.segments = segments
        #: Descendant spans that were still open and had to be clamped.
        self.open_spans = open_spans

    @property
    def latency(self) -> float:
        assert self.root.end is not None
        return self.root.end - self.root.begin

    @property
    def path_time(self) -> float:
        """Sum of segment durations; equals :attr:`latency` to float
        tolerance (the conservation invariant)."""
        return sum(seg.duration for seg in self.segments)

    def categories(self) -> dict[str, float]:
        """Seconds on the path per attribution category (all categories
        present, zeros included) — the attrib.py-comparable view."""
        totals = dict.fromkeys(ATTRIBUTION_CATEGORIES, 0.0)
        for seg in self.segments:
            totals[seg.category] += seg.duration
        return totals

    def dominant(self) -> str:
        """The category that got the most of this request's time."""
        totals = self.categories()
        return max(ATTRIBUTION_CATEGORIES,
                   key=lambda c: (totals[c], -_CATEGORY_ORDER[c]))

    def describe(self) -> str:
        top = self.dominant()
        share = (self.categories()[top] / self.latency * 100.0
                 if self.latency > 0 else 0.0)
        warn = f" open_spans={self.open_spans}" if self.open_spans else ""
        return (f"{self.root.name:<10} #{self.root.fields.get('request', self.root.id):<5} "
                f"{self.latency * 1e3:9.3f}ms dominated by {top} "
                f"({share:.0f}%){warn}")

    def render(self) -> str:
        """The whole chain, one line per merged interval."""
        lines = [self.describe()]
        lines.extend("  " + seg.describe() for seg in self.segments)
        return "\n".join(lines)


def _descend(root: "Span", children: "dict[int, list[Span]]"
             ) -> "list[tuple[Span, int]]":
    out: list[tuple["Span", int]] = []
    stack: list[tuple["Span", int]] = [(root, 0)]
    while stack:
        span, depth = stack.pop()
        kids = children.get(span.id)
        if kids:
            out.extend((k, depth + 1) for k in kids)
            stack.extend((k, depth + 1) for k in kids)
    return out


def critical_path(tracer: "Tracer", root: "Span",
                  children: "dict[int, list[Span]] | None" = None
                  ) -> CriticalPath:
    """Extract the critical path of one *closed* root span.

    Open descendants are clamped to the root's end and counted on the
    returned path's ``open_spans``; passing an open root is a ValueError
    (exclude and count those at the report level).
    """
    if root.end is None:
        raise ValueError(f"root span {root.id} ({root.name}) is still open")
    if children is None:
        children = tracer.children_index()
    lo, hi = root.begin, root.end
    open_spans = 0

    # (begin, end, depth, span, mapped) clamped into the root's lifetime;
    # mapped is attrib's (category, priority) or None for structural spans.
    intervals: list[tuple[float, float, int, "Span", "tuple | None"]] = []
    for span, depth in _descend(root, children):
        end = span.end
        if end is None:
            open_spans += 1
            end = hi
        begin = max(span.begin, lo)
        end = min(end, hi)
        if end > begin:
            intervals.append((begin, end, depth, span,
                              _SPAN_CATEGORY.get(span.name)))

    segments: list[Segment] = []
    if hi > lo:
        points = sorted({lo, hi, *(b for b, _, _, _, _ in intervals),
                         *(e for _, e, _, _, _ in intervals)})
        for seg_lo, seg_hi in zip(points, points[1:]):
            # Two candidate pools, exactly mirroring attrib's sweep: an
            # active wait/service span always beats a structural one.
            wait_key, wait = None, None
            deep_key, deep = None, None
            for begin, end, depth, span, mapped in intervals:
                if begin <= seg_lo and end >= seg_hi:
                    if mapped is not None:
                        key = (mapped[1], -_CATEGORY_ORDER[mapped[0]],
                               depth, begin, span.id)
                        if wait_key is None or key > wait_key:
                            wait_key, wait = key, (span, depth)
                    else:
                        key = (depth, begin, span.id)
                        if deep_key is None or key > deep_key:
                            deep_key, deep = key, (span, depth)
            winner, winner_depth = wait or deep or (root, 0)
            last = segments[-1] if segments else None
            if last is not None and last.span is winner and last.end == seg_lo:
                segments[-1] = Segment(winner, last.begin, seg_hi, winner_depth)
            else:
                segments.append(Segment(winner, seg_lo, seg_hi, winner_depth))
    return CriticalPath(root, segments, open_spans)


class CritReport:
    """Critical paths of every completed request in a trace."""

    def __init__(self, paths: "list[CriticalPath]", open_roots: int):
        self.paths = paths
        #: Requests still in flight when the trace was snapshotted —
        #: excluded from every total below, never silently zeroed.
        self.open_roots = open_roots

    @property
    def open_spans(self) -> int:
        """Clamped still-open descendant spans across all paths."""
        return sum(p.open_spans for p in self.paths)

    def by_kind(self) -> dict[str, dict[str, object]]:
        """Per-request-kind blame totals, shaped like attrib's table:
        ``{kind: {"requests", "total", "categories"}}``, kinds sorted."""
        table: dict[str, dict[str, object]] = {}
        for path in self.paths:
            row = table.get(path.root.name)
            if row is None:
                row = table[path.root.name] = {
                    "requests": 0,
                    "total": 0.0,
                    "categories": dict.fromkeys(ATTRIBUTION_CATEGORIES, 0.0),
                }
            row["requests"] += 1
            row["total"] += path.latency
            cats = row["categories"]
            for category, seconds in path.categories().items():
                cats[category] += seconds
        return {kind: table[kind] for kind in sorted(table)}

    def top(self, n: int = 10) -> "list[CriticalPath]":
        """The ``n`` slowest requests, slowest first (id breaks ties)."""
        if n < 0:
            raise ValueError(f"top needs n >= 0, not {n}")
        return sorted(self.paths,
                      key=lambda p: (-p.latency, p.root.id))[:n]

    def render(self, top_n: int = 5) -> str:
        """Blame table plus the top-N slowest requests with their paths."""
        lines = [f"critical paths: {len(self.paths)} requests"]
        if self.open_roots:
            lines.append(f"WARNING: {self.open_roots} request(s) still "
                         "open — excluded from every total")
        if self.open_spans:
            lines.append(f"WARNING: {self.open_spans} open child span(s) "
                         "clamped to their request's end")
        for kind, row in self.by_kind().items():
            cats = row["categories"]
            total = row["total"]
            parts = "  ".join(
                f"{c}={cats[c] * 1e3:.2f}ms"
                for c in ATTRIBUTION_CATEGORIES if cats[c] > 0.0)
            lines.append(f"  {kind:<10} n={row['requests']:<5} "
                         f"total={total * 1e3:10.2f}ms  {parts}")
        slow = self.top(top_n)
        if slow:
            lines.append(f"slowest {len(slow)} requests:")
            for path in slow:
                lines.extend("  " + line for line in
                             path.render().splitlines())
        return "\n".join(lines)

    def to_json(self) -> dict:
        """A JSON-ready summary (per-kind blame + top-10 one-liners)."""
        return {
            "requests": len(self.paths),
            "open_roots": self.open_roots,
            "open_spans": self.open_spans,
            "by_kind": self.by_kind(),
            "slowest": [
                {
                    "kind": p.root.name,
                    "request": p.root.fields.get("request", p.root.id),
                    "latency": p.latency,
                    "dominant": p.dominant(),
                    "categories": p.categories(),
                    "open_spans": p.open_spans,
                }
                for p in self.top(10)
            ],
        }


#: Relative tolerance of :func:`verify_conservation`.
CONSERVATION_TOL = 1e-9
#: Seconds :func:`verify_against_attribution` lets the two sweeps differ
#: by per cell (they visit float boundaries in different orders).
ATTRIBUTION_TOL = 1e-6


def critical_paths(tracer: "Tracer") -> CritReport:
    """Extract every completed request's critical path from a trace.

    Open roots are excluded and counted on the report.
    """
    children = tracer.children_index()
    paths: list[CriticalPath] = []
    open_roots = 0
    for root in tracer.span_roots():
        if root.end is None:
            open_roots += 1
            continue
        paths.append(critical_path(tracer, root, children))
    return CritReport(paths, open_roots)


def verify_conservation(report: CritReport) -> "list[str]":
    """Check every path's segments sum to its latency (within
    :data:`CONSERVATION_TOL` relative to the latency).  Returns
    human-readable violations."""
    tol = CONSERVATION_TOL
    problems = []
    for path in report.paths:
        bound = max(tol, abs(path.latency) * tol)
        if abs(path.path_time - path.latency) > bound:
            problems.append(
                f"{path.root.name} span {path.root.id}: path time "
                f"{path.path_time!r} != latency {path.latency!r}")
    return problems


def verify_against_attribution(tracer: "Tracer", report: CritReport
                               ) -> "list[str]":
    """Cross-check the per-kind blame totals against attrib.py's sweep.

    Both modules classify every instant of every completed request; they
    must agree per kind and category to within :data:`ATTRIBUTION_TOL`.
    Disagreement means one of the sweeps mis-blamed time — returned as
    messages, one per mismatched cell.
    """
    attrib = attribution_table(tracer)
    ours = report.by_kind()
    problems = []
    for kind in sorted(set(attrib) | set(ours)):
        a_row, o_row = attrib.get(kind), ours.get(kind)
        if a_row is None or o_row is None:
            problems.append(f"{kind}: present in only one table "
                            f"(attrib={a_row is not None})")
            continue
        for category in ATTRIBUTION_CATEGORIES:
            a = a_row["categories"][category]
            o = o_row["categories"][category]
            if abs(a - o) > ATTRIBUTION_TOL:
                problems.append(f"{kind}/{category}: attrib={a!r} "
                                f"critpath={o!r}")
    return problems


__all__ = ["CritReport", "CriticalPath", "Segment", "critical_path",
           "critical_paths", "span_category", "verify_against_attribution",
           "verify_conservation"]
