"""Exporters: span trees as Chrome trace events and folded flame stacks.

Two standard offline formats for the tracer's span trees:

* :func:`chrome_trace_json` — the Chrome trace-event JSON format (load the
  file in ``chrome://tracing`` or https://ui.perfetto.dev).  The whole
  machine is one process (``pid=1``, named ``system``); each traced
  request is its own thread track (``tid`` = request id), so one
  request's syscall → getpage → disk_io lifecycle reads as one swim
  lane.  Member-tagged I/O (``disk_io[mN]`` spans from a concat/stripe/
  mirror volume) moves — subtree and all — onto a per-member
  ``disk[mN]`` track, which is where overlapped member service is
  actually visible.  Spans with no request id (the NFS server's
  ``nfs_server`` spans, ad-hoc roots) get one named track per root
  name.

* :func:`folded_stacks` — collapsed "folded" stack lines
  (``read;getpage;disk_io 123``) consumable by standard flamegraph
  tooling (flamegraph.pl, inferno, speedscope).  Each line's value is
  critical-path time in integer microseconds, so the flame widths sum
  to the traced requests' total latency.

Both exporters are **byte-deterministic** for same-seed runs: span /
request / buf ids come from per-world counters, events are explicitly
sorted, and JSON is serialized with sorted keys.  Open spans never skew
either export: open roots are excluded and counted, open descendants
are clamped to their root's end and counted (see
:mod:`repro.obs.critpath`), and the counts ride along in the output
metadata.
"""

from __future__ import annotations

import json
from operator import itemgetter
from typing import TYPE_CHECKING

from repro.obs.critpath import CritReport, critical_paths, span_category

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.trace import Span, Tracer

#: Schema tag carried in the Chrome document's ``otherData``.
CHROME_SCHEMA = "repro-chrome/v1"

#: Track ids for non-request tracks start here, far above any realistic
#: request id, so request tids and named-track tids never collide.
_NAMED_TRACK_BASE = 1_000_000

#: The one simulated machine is one Chrome "process".
_PID = 1


def _usec(seconds: float) -> float:
    """Simulated seconds -> trace-event microseconds (ns-stable round)."""
    return round(seconds * 1e6, 3)


#: Every value below ``traceEvents`` is rendered by this one stdlib encoder.
#: Its item separator carries the newline and the depth-4 indent of an
#: ``args`` member, so an ``args`` object comes out in canonical form but
#: for its outer braces — and with no ``indent`` the C encoder runs.
_ITEM_BREAK = ",\n    "
_encode = json.JSONEncoder(sort_keys=True,
                           separators=(_ITEM_BREAK, ": ")).encode

_SORT_KEY = itemgetter(0, 1, 2)  # (ts, tid, span id)

_HEAD = ('{\n "displayTimeUnit": "ms",\n "otherData": {\n'
         '  "open_roots": %d,\n  "open_spans": %d,\n  "schema": %s\n },\n'
         ' "traceEvents": [\n')
_META_EVENT = ('  {\n   "args": {\n    "name": %s\n   },\n   "name": "%s",\n'
               '   "ph": "M",\n   "pid": %d%s\n  }')
_SPAN_EVENT = ('  {\n   "args": {\n    %s\n   },\n   "cat": %s,\n'
               '   "dur": %s,\n   "name": %s,\n   "ph": "X",\n   "pid": %d,\n'
               '   "tid": %d,\n   "ts": %s\n  }')
_TAIL = "\n ]\n}\n"


def chrome_trace_json(tracer: "Tracer") -> str:
    """The trace as a Chrome trace-event document, in its one byte form.

    Every closed span becomes one complete (``ph="X"``) event carrying
    its span/parent ids and fields in ``args`` and its attribution
    category in ``cat``.  See the module docstring for the track layout
    and the open-span policy.

    The canonical bytes are by definition the stdlib's one-space-indent,
    sorted-keys rendering of the document plus a newline; they are written
    here directly (an ``indent`` would put the stdlib on its pure-Python
    encoder), which ``tests/obs/test_export_bytes.py`` holds to the
    dict-building writer this replaced.
    """
    children = tracer.children_index()
    # One (ts, tid, span id, dur, args, "cat" text, "name" text) per event.
    rows: list[tuple] = []
    named_tracks: dict[str, int] = {}
    # span name -> (its disk[mN] track or None, "cat" text, "name" text)
    by_name: dict[str, tuple] = {}
    open_roots = 0
    open_spans = 0

    def track_for(name: str) -> int:
        tid = named_tracks.get(name)
        if tid is None:
            tid = named_tracks[name] = _NAMED_TRACK_BASE + len(named_tracks)
        return tid

    for root in tracer.span_roots():
        clamp = root.end
        if clamp is None:
            open_roots += 1
            continue
        request = root.fields.get("request")
        # Preorder, so named tracks are numbered in first-visit order.
        stack = [(root, int(request) if request is not None
                  else track_for(root.name))]
        while stack:
            span, tid = stack.pop()
            name = span.name
            memo = by_name.get(name)
            if memo is None:
                member = name.startswith("disk_io[") and name.endswith("]")
                memo = by_name[name] = (
                    "disk" + name[len("disk_io"):] if member else None,
                    json.dumps(span_category(name)), json.dumps(name))
            track, cat_text, name_text = memo
            # A member-tagged I/O span drags its whole subtree onto the
            # member's track; everything else inherits the parent's.
            if track is not None:
                tid = track_for(track)
            end = span.end
            if end is None:
                open_spans += 1
                end = clamp
            begin = min(span.begin, end)
            fields = span.fields
            args = {"span": span.id, "parent": span.parent_id, **fields}
            for key, value in fields.items():
                if not (value is None
                        or isinstance(value, (int, float, str))):
                    args[key] = str(value)
            rows.append((_usec(begin), tid, span.id, _usec(end - begin),
                         args, cat_text, name_text))
            kids = children.get(span.id)
            if kids:
                stack.extend([(kid, tid) for kid in reversed(kids)])

    rows.sort(key=_SORT_KEY)
    events = [_META_EVENT % ('"system"', "process_name", _PID, "")]
    events += [_META_EVENT % (json.dumps(name), "thread_name", _PID,
                              f',\n   "tid": {tid}')
               for name, tid in named_tracks.items()]  # in tid order
    # Three encoder calls render every span value.  A raw newline cannot
    # occur inside a JSON token, so the item break occurs only between list
    # items and, args objects being flat, "}" + break + "{" only between two
    # of them — which leaves each args text without its outer braces.
    events += [
        _SPAN_EVENT % (args, cat_text, dur, name_text, _PID, tid, ts)
        for args, dur, ts, (_, tid, _, _, _, cat_text, name_text) in zip(
            _encode([row[4] for row in rows])[2:-2].split(
                "}" + _ITEM_BREAK + "{"),
            _encode([row[3] for row in rows])[1:-1].split(_ITEM_BREAK),
            _encode([row[0] for row in rows])[1:-1].split(_ITEM_BREAK),
            rows)]
    return (_HEAD % (open_roots, open_spans, json.dumps(CHROME_SCHEMA))
            + ",\n".join(events) + _TAIL)


def chrome_trace(tracer: "Tracer") -> dict:
    """:func:`chrome_trace_json`, parsed: the document as a dict."""
    return json.loads(chrome_trace_json(tracer))


def folded_stacks(tracer: "Tracer",
                  report: "CritReport | None" = None) -> str:
    """The trace as collapsed flamegraph lines, sorted, one per stack.

    Each completed request contributes its critical-path segments; a
    segment's stack is the ``;``-joined span-name chain from the request
    root down to the blamed span, and its value is the segment time in
    integer microseconds.  Pass a precomputed ``report`` to reuse the
    critical paths (the CLI does); its ``open_roots``/``open_spans``
    counts are the exporter's data-quality warnings.
    """
    if report is None:
        report = critical_paths(tracer)
    totals: dict[str, float] = {}
    for path in report.paths:
        names: dict[int, str] = {}

        def stack_of(span: "Span") -> str:
            cached = names.get(span.id)
            if cached is None:
                if span.parent_id is None or span is path.root:
                    cached = span.name
                else:
                    parent = tracer.span_by_id(span.parent_id)
                    cached = stack_of(parent) + ";" + span.name
                names[span.id] = cached
            return cached

        for seg in path.segments:
            stack = stack_of(seg.span)
            totals[stack] = totals.get(stack, 0.0) + seg.duration
    lines = []
    for stack in sorted(totals):
        usec = round(totals[stack] * 1e6)
        if usec > 0:
            lines.append(f"{stack} {usec}")
    return "\n".join(lines) + ("\n" if lines else "")


__all__ = ["CHROME_SCHEMA", "chrome_trace", "chrome_trace_json",
           "folded_stacks"]
