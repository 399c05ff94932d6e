"""The trace exporters' bytes are a contract; this is the reference they meet.

``chrome_trace_json`` and ``Tracer.to_jsonl`` write their text directly
(C-speed JSON encoding, DESIGN.md §13).  The writers they replaced — a
dict per event through ``json.dumps(..., indent=1, sort_keys=True)``, and
one ``json.dumps(..., default=str)`` per JSONL line — live on here,
verbatim, as test-only references:

* a hypothesis strategy over span forests (request roots, rootless
  named-track roots, ``disk_io[mN]`` subtrees, open roots and children,
  zero-length, reversed and never-ending intervals, every scalar kind
  incl. non-finite floats, hostile strings, non-scalar objects, field keys colliding with
  the envelope keys) holds both writers to the references byte for byte;
* ``golden/export_sha256.json`` pins the Chrome / folded / JSONL bytes of
  three seeded traces.  It was recorded **at the commit before the direct
  writers existed**; re-record (only when an export is *meant* to change)
  with::

      PYTHONPATH=src python -m tests.obs.test_export_bytes

Four hand mutations of the Chrome writer were each checked to fail this
file: item separator one space short (wrong indent depth), ``sort_keys``
dropped from the encoder (unsorted ``args``), ``repr`` instead of the
encoder for ``dur`` (``inf`` for a non-finite float), and the trailing
newline dropped.
"""

import enum
import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.iobench import IObench
from repro.disk import DiskGeometry
from repro.kernel import Proc, System, SystemConfig
from repro.nfs import build_world
from repro.obs.critpath import span_category
from repro.obs.export import chrome_trace, chrome_trace_json, folded_stacks
from repro.sim.engine import Engine
from repro.sim.trace import (
    TRACE_SCHEMA, Span, TraceRecord, Tracer, load_jsonl,
)
from repro.units import KB, MB

GOLDEN = Path(__file__).parent / "golden" / "export_sha256.json"


# -- the reference writers (the parent commit's, verbatim) ---------------------

CHROME_SCHEMA = "repro-chrome/v1"
_NAMED_TRACK_BASE = 1_000_000
_PID = 1


def _usec(seconds):
    return round(seconds * 1e6, 3)


def ref_chrome_trace(tracer):
    children = tracer.children_index()
    events = []
    named_tracks = {}
    open_roots = 0
    open_spans = 0

    def track_for(name):
        tid = named_tracks.get(name)
        if tid is None:
            tid = named_tracks[name] = _NAMED_TRACK_BASE + len(named_tracks)
        return tid

    def emit(span, tid, clamp):
        nonlocal open_spans
        end = span.end
        if end is None:
            open_spans += 1
            end = clamp
        begin = min(span.begin, end)
        args = {"span": span.id, "parent": span.parent_id}
        for key, value in span.fields.items():
            args[key] = (value if isinstance(value, (int, float, str, bool))
                         or value is None else str(value))
        events.append((_usec(begin), tid, span.id, {
            "name": span.name,
            "cat": span_category(span.name),
            "ph": "X",
            "ts": _usec(begin),
            "dur": _usec(end - begin),
            "pid": _PID,
            "tid": tid,
            "args": args,
        }))

    def walk(span, tid, clamp):
        if span.name.startswith("disk_io[") and span.name.endswith("]"):
            tid = track_for("disk" + span.name[len("disk_io"):])
        emit(span, tid, clamp)
        for child in children.get(span.id, ()):
            walk(child, tid, clamp)

    for root in tracer.span_roots():
        if root.end is None:
            open_roots += 1
            continue
        request = root.fields.get("request")
        tid = int(request) if request is not None else track_for(root.name)
        walk(root, tid, root.end)

    meta_events = [{
        "name": "process_name",
        "ph": "M",
        "pid": _PID,
        "args": {"name": "system"},
    }]
    meta_events.extend(
        {
            "name": "thread_name",
            "ph": "M",
            "pid": _PID,
            "tid": tid,
            "args": {"name": name},
        }
        for name, tid in sorted(named_tracks.items(), key=lambda kv: kv[1])
    )
    events.sort(key=lambda item: (item[0], item[1], item[2]))
    return {
        "displayTimeUnit": "ms",
        "otherData": {
            "schema": CHROME_SCHEMA,
            "open_roots": open_roots,
            "open_spans": open_spans,
        },
        "traceEvents": meta_events + [event for _, _, _, event in events],
    }


def ref_chrome_trace_json(tracer):
    return json.dumps(ref_chrome_trace(tracer), indent=1, sort_keys=True) + "\n"


def ref_to_jsonl(tracer):
    lines = [json.dumps({"type": "meta", "schema": TRACE_SCHEMA,
                         "records": len(tracer.records),
                         "spans": len(tracer.spans)})]
    lines.extend(
        json.dumps({"type": "record", "time": r.time, "tag": r.tag,
                    **r.fields}, default=str)
        for r in tracer.records
    )
    lines.extend(
        json.dumps({"type": "span", "id": s.id, "parent": s.parent_id,
                    "name": s.name, "begin": s.begin, "end": s.end,
                    **s.fields}, default=str)
        for s in sorted(tracer.spans, key=lambda s: (s.begin, s.id))
    )
    return "\n".join(lines)


def canonical(text):
    """``text`` re-rendered by the stdlib in the canonical Chrome form."""
    return json.dumps(json.loads(text), indent=1, sort_keys=True) + "\n"


# -- generated span forests ------------------------------------------------------

class Opaque:
    """A non-scalar field value: only ``str()`` can serialise it."""

    def __init__(self, text):
        self.text = text

    def __str__(self):
        return self.text


class Colour(enum.IntEnum):
    RED = 7


class Tag(str):
    """A ``str`` subclass: scalar to ``isinstance``, not to ``type() in``."""


HOSTILE = 'q"uo\\te\n\t\x00\x1f\x7f é ключ 木 \U0001f600 </script>'

texts = st.one_of(st.text(max_size=12), st.just(HOSTILE), st.just(""))
scalars = st.one_of(
    st.integers(min_value=-2**70, max_value=2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("inf"), float("-inf"), float("nan"), 1e16, 1e-7,
                     -0.0, 0.1 + 0.2, True, False, None, Colour.RED,
                     Tag("tagged")]),
    texts,
)
non_scalars = st.one_of(
    st.builds(Opaque, texts),
    st.tuples(st.integers(), texts),
    st.lists(st.integers(), max_size=3),
    st.dictionaries(st.sampled_from(["a", "b"]), st.integers(), max_size=2),
    st.builds(Path, st.sampled_from(["/dev/sd0a", "rel/path"])),
    st.binary(max_size=4),
)
values = st.one_of(scalars, non_scalars)

PLAIN_KEYS = ["buf", "bytes", "op", "origin", "sector", 'k"ey\\', "ключ"]
#: Keys the Chrome ``args`` / JSONL line already carry for the span itself.
SPAN_COLLISIONS = ["span", "parent", "type", "id", "name", "begin", "end"]
RECORD_COLLISIONS = ["type", "time", "tag"]

SPAN_NAMES = ["read", "write", "fsync", "getpage", "disk_io", "disk_io[m0]",
              "disk_io[m3]", "disk_io[", "queue_wait", "service",
              "rotation_seek", "transfer", "throttle_wait", "mem_wait", "rpc",
              "nfs_server", HOSTILE]

times = st.one_of(
    st.integers(min_value=0, max_value=3),
    st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
    # inf: a span that "never ends" exports dur Infinity (NaN from inf - inf)
    st.sampled_from([0.0, 1e-9, 0.0123456789, 1.0000005, 2.5, float("inf")]),
)


def fields_of(collisions):
    return st.dictionaries(st.sampled_from(PLAIN_KEYS + collisions), values,
                           max_size=4)


@st.composite
def tracers(draw, collisions=True):
    """A tracer holding a random forest of spans plus a few flat records."""
    tracer = Tracer(Engine(), enabled=True)
    span_fields = fields_of(SPAN_COLLISIONS if collisions else [])
    record_fields = fields_of(RECORD_COLLISIONS if collisions else [])
    for span_id in range(1, draw(st.integers(0, 14)) + 1):
        # -1 = a new root; otherwise a child of an earlier span.
        parent_index = draw(st.integers(-1, len(tracer.spans) - 1))
        parent = None if parent_index < 0 else tracer.spans[parent_index]
        begin = draw(times)
        # None = still open; begin itself = zero length; any other time
        # may lie before begin (a reversed interval).
        end = draw(st.one_of(st.none(), st.just(begin), times))
        fields = draw(span_fields)
        if parent is None and draw(st.booleans()):
            fields = {"request": draw(st.integers(0, 5)), **fields}
        tracer._add_span(Span(span_id, draw(st.sampled_from(SPAN_NAMES)),
                              None if parent is None else parent.id,
                              begin, end, fields))
    for _ in range(draw(st.integers(0, 3))):
        tracer.records.append(TraceRecord(
            draw(times), draw(st.sampled_from(["getpage_sync", HOSTILE])),
            draw(record_fields)))
    return tracer


@settings(max_examples=300, deadline=None)
@given(tracers())
def test_chrome_writer_matches_the_reference_byte_for_byte(tracer):
    text = chrome_trace_json(tracer)
    assert text == ref_chrome_trace_json(tracer)
    assert text == canonical(text)


@settings(max_examples=300, deadline=None)
@given(tracers())
def test_jsonl_writer_matches_the_reference_byte_for_byte(tracer):
    assert tracer.to_jsonl() == ref_to_jsonl(tracer)


@settings(max_examples=200, deadline=None)
@given(tracers(collisions=False))
def test_reloaded_trace_exports_match_the_references(tracer):
    # (A field named like an envelope key overwrites it on the line, so
    # such a trace does not reload; the two tests above still cover it.)
    text = tracer.to_jsonl()
    reloaded = load_jsonl(text)
    assert reloaded.to_jsonl() == text == ref_to_jsonl(reloaded)
    assert chrome_trace_json(reloaded) == ref_chrome_trace_json(reloaded)


# -- three seeded traces, pinned by hash -----------------------------------------

def small_geometry():
    return DiskGeometry.uniform(cylinders=200, heads=4, sectors_per_track=32)


def iobench_c_trace():
    """IObench config C, 1 MB, every phase traced."""
    bench = IObench(SystemConfig.by_name("C"), file_size=1 * MB,
                    random_ops=16, seed=1991, trace_phase="*")
    bench.run()
    return bench.system.tracer


def nfs_stripe_server_trace():
    """An NFS server on ``stripe:4``: ``nfs_server`` spans on their named
    track, and a local process whose member I/O lands on ``disk[mN]``."""
    config = SystemConfig.config_a().with_(layout="stripe:4",
                                           geometry=small_geometry())
    client, server, mount = build_world(server_config=config)
    server.tracer.enabled = True
    remote = Proc(client, mount=mount)
    local = Proc(server)

    def write_file(proc, path, nblocks):
        fd = yield from proc.open(path, create=True)
        for _ in range(nblocks):
            yield from proc.write(fd, bytes(8 * KB))
        yield from proc.fsync(fd)
        yield from proc.close(fd)

    client.run(write_file(remote, "/remote", 32), name="nfs-write")
    server.run(write_file(local, "/local", 16), name="local-write")
    return server.tracer


def open_span_trace():
    """A machine stopped mid-fsync (an open root with open children), plus
    one leaked child: a closed request's ``queue_wait`` reopened."""
    system = System.booted(
        SystemConfig.config_a().with_(geometry=small_geometry()))
    system.tracer.enabled = True
    proc = Proc(system)

    def work():
        for path in ("/done", "/in-flight"):
            fd = yield from proc.creat(path)
            for _ in range(24):
                yield from proc.write(fd, bytes(8 * KB))
            yield from proc.fsync(fd)
            yield from proc.close(fd)

    system.engine.process(work(), name="snapshotted")
    system.engine.run(until=0.5)  # /done is on disk, /in-flight mid-fsync
    tracer = system.tracer
    next(s for s in tracer.spans if s.name == "queue_wait").end = None
    return tracer


TRACES = {
    "iobench_C_1mb_all_phases": iobench_c_trace,
    "nfs_stripe4_server": nfs_stripe_server_trace,
    "open_root_and_open_child": open_span_trace,
}


def observe(name):
    tracer = TRACES[name]()
    exports = {"chrome": chrome_trace_json(tracer),
               "folded": folded_stacks(tracer),
               "jsonl": tracer.to_jsonl()}
    observed = {kind: hashlib.sha256(text.encode()).hexdigest()
                for kind, text in exports.items()}
    observed["spans"] = len(tracer.spans)
    return observed, tracer, exports


@pytest.mark.parametrize("name", sorted(TRACES))
def test_seeded_exports_hash_to_the_golden(name):
    observed, tracer, exports = observe(name)
    assert observed == json.loads(GOLDEN.read_text())[name]
    assert exports["chrome"] == ref_chrome_trace_json(tracer)
    assert exports["jsonl"] == ref_to_jsonl(tracer)


def test_golden_traces_cover_what_their_names_say():
    _, nfs, _ = observe("nfs_stripe4_server")
    tracks = {e["args"]["name"] for e in chrome_trace(nfs)["traceEvents"]
              if e["name"] == "thread_name"}
    assert "nfs_server" in tracks
    assert any(t.startswith("disk[m") for t in tracks)
    _, snapshot, _ = observe("open_root_and_open_child")
    other = chrome_trace(snapshot)["otherData"]
    assert other["open_roots"] >= 1 and other["open_spans"] >= 1


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    lines = [f' {json.dumps(name)}: {json.dumps(observe(name)[0], sort_keys=True)}'
             for name in sorted(TRACES)]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {GOLDEN} ({len(lines)} traces)")
