"""Per-layer time attribution from request span trees.

The span trees recorded by :class:`~repro.sim.request.IORequest` already
say *what happened* to each request; this module turns them into the
paper-style question of *where the time went*.  For every traced request
root it classifies each instant of the request's lifetime into exactly
one category:

==============  ======================================================
category        meaning
==============  ======================================================
cpu             no wait span active — the request was computing
                (syscall path, page copies, checksum work)
queue_wait      buf sat in the driver queue behind other I/O
rotation_seek   disk arm seeking / head switching / rotational latency
transfer        bytes moving over the media or the bus
throttle_wait   blocked on the write throttle or waiting for memory
rpc             network round-trip (NFS client waiting on the wire)
other_io        inside disk service but not attributable to seek or
                transfer (controller overhead, track-buffer housekeeping)
==============  ======================================================

Classification is a sweep over each root's descendant spans.  Wait spans
(queue_wait, rotation_seek, transfer, throttle_wait, mem_wait, rpc) take
priority over the generic ``service`` interval, which in turn beats the
bare root; whatever no span covers is cpu.  Nested or overlapping waits
never double-count: each instant lands in exactly one bucket, so the
categories of one request sum to its elapsed time.

The output — :func:`attribution_table` — is a per-request-kind table of
seconds per category, ready for ``BENCH.json`` and the perf gate's
"attribution blowup" check.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.trace import Span, Tracer

#: Category order — also the deterministic tiebreak when two spans of the
#: same priority overlap (earlier wins).
ATTRIBUTION_CATEGORIES = (
    "cpu",
    "queue_wait",
    "rotation_seek",
    "transfer",
    "throttle_wait",
    "rpc",
    "other_io",
)

#: span name -> (category, priority).  Higher priority wins the sweep;
#: ``service`` is the priority-0 fallback that catches disk time not
#: explained by the synthesized rotation_seek/transfer children.
_SPAN_CATEGORY: dict[str, tuple[str, int]] = {
    "queue_wait": ("queue_wait", 1),
    "rotation_seek": ("rotation_seek", 1),
    "transfer": ("transfer", 1),
    "throttle_wait": ("throttle_wait", 1),
    "mem_wait": ("throttle_wait", 1),
    "rpc": ("rpc", 1),
    "service": ("other_io", 0),
}

_CATEGORY_RANK = {name: i for i, name in enumerate(ATTRIBUTION_CATEGORIES)}


def _descendants(root: "Span",
                 children: dict[int, list["Span"]]) -> list["Span"]:
    out: list["Span"] = []
    stack = [root]
    while stack:
        span = stack.pop()
        kids = children.get(span.id)
        if kids:
            out.extend(kids)
            stack.extend(kids)
    return out


def _attribute_root(root: "Span",
                    children: dict[int, list["Span"]]) -> dict[str, float]:
    """Split one closed root span's duration across the categories."""
    lo, hi = root.begin, root.end
    assert hi is not None
    buckets = dict.fromkeys(ATTRIBUTION_CATEGORIES, 0.0)
    if hi <= lo:
        return buckets

    # Categorized intervals, clamped into the root's lifetime.
    intervals: list[tuple[float, float, int, str]] = []
    for span in _descendants(root, children):
        mapped = _SPAN_CATEGORY.get(span.name)
        if mapped is None or span.end is None:
            continue
        begin = max(span.begin, lo)
        end = min(span.end, hi)
        if end > begin:
            intervals.append((begin, end, mapped[1], mapped[0]))

    if not intervals:
        buckets["cpu"] = hi - lo
        return buckets

    # Sweep the boundary points; each segment goes to the highest-priority
    # active interval (category order breaks priority ties), else cpu.
    points = sorted({lo, hi, *(b for b, _, _, _ in intervals),
                     *(e for _, e, _, _ in intervals)})
    for seg_lo, seg_hi in zip(points, points[1:]):
        winner = "cpu"
        winner_key = (-1, 0)
        for begin, end, priority, category in intervals:
            if begin <= seg_lo and end >= seg_hi:
                key = (priority, -_CATEGORY_RANK[category])
                if key > winner_key:
                    winner_key = key
                    winner = category
        buckets[winner] += seg_hi - seg_lo
    return buckets


def attribution_table(tracer: "Tracer") -> dict[str, dict[str, object]]:
    """Where simulated time went, per request kind.

    Returns ``{kind: {"requests": n, "total": seconds,
    "categories": {category: seconds}}}``, kinds sorted.  Only closed
    root spans count; an open root (request still in flight at snapshot
    time) is skipped rather than guessed at.
    """
    children = tracer.children_index()
    table: dict[str, dict[str, object]] = {}
    for root in tracer.span_roots():
        if root.end is None:
            continue
        row = table.get(root.name)
        if row is None:
            row = table[root.name] = {
                "requests": 0,
                "total": 0.0,
                "categories": dict.fromkeys(ATTRIBUTION_CATEGORIES, 0.0),
            }
        split = _attribute_root(root, children)
        row["requests"] += 1
        row["total"] += root.end - root.begin
        cats = row["categories"]
        for category, seconds in split.items():
            cats[category] += seconds
    return {kind: table[kind] for kind in sorted(table)}


def render_attribution(table: dict[str, dict[str, object]]) -> str:
    """The attribution table as fixed-width text (one row per kind)."""
    if not table:
        return "(no traced requests)"
    header = (f"{'kind':<12} {'reqs':>6} {'total_ms':>10}  "
              + "  ".join(f"{c:>13}" for c in ATTRIBUTION_CATEGORIES))
    lines = [header, "-" * len(header)]
    for kind, row in table.items():
        total = row["total"]
        cells = []
        for category in ATTRIBUTION_CATEGORIES:
            seconds = row["categories"][category]
            share = (seconds / total * 100.0) if total > 0 else 0.0
            cells.append(f"{seconds * 1e3:8.2f}({share:3.0f}%)")
        lines.append(f"{kind:<12} {row['requests']:>6} {total * 1e3:>10.2f}  "
                     + "  ".join(f"{c:>13}" for c in cells))
    return "\n".join(lines)


__all__ = ["ATTRIBUTION_CATEGORIES", "attribution_table",
           "render_attribution"]
