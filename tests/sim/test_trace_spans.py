"""Tests for the tracer's span API: trees, rendering, JSONL export."""

import json

from repro.sim import Engine, Tracer


def make_tracer(enabled=True):
    eng = Engine()
    return eng, Tracer(eng, enabled=enabled)


def test_span_begin_end_records_times():
    eng, tr = make_tracer()

    def proc():
        span = tr.span_begin("read", offset=0)
        yield eng.timeout(1.5)
        tr.span_end(span, bytes=8192)

    eng.run_process(proc())
    (span,) = tr.spans
    assert span.name == "read"
    assert span.begin == 0.0
    assert span.end == 1.5
    assert span.duration == 1.5
    assert span.fields == {"offset": 0, "bytes": 8192}


def test_spans_disabled_return_none_and_record_nothing():
    _, tr = make_tracer(enabled=False)
    span = tr.span_begin("read")
    assert span is None
    tr.span_end(span)  # no-op, no crash
    assert tr.record_span("disk_io", 0.0, 1.0) is None
    assert tr.spans == []


def test_span_tree_structure():
    _, tr = make_tracer()
    root = tr.span_begin("read")
    child = tr.span_begin("getpage", parent=root)
    grandchild = tr.span_begin("disk_io", parent=child)
    other_root = tr.span_begin("write")
    for s in (grandchild, child, root, other_root):
        tr.span_end(s)

    assert tr.span_roots() == [root, other_root]
    assert tr.span_children(root) == [child]
    assert tr.span_children(child.id) == [grandchild]
    assert [(d, s.name) for d, s in tr.span_tree(root)] == [
        (0, "read"), (1, "getpage"), (2, "disk_io"),
    ]


def test_record_span_takes_explicit_times():
    _, tr = make_tracer()
    parent = tr.span_begin("read")
    span = tr.record_span("queue_wait", 1.0, 3.5, parent=parent, sector=40)
    assert span.begin == 1.0
    assert span.end == 3.5
    assert span.parent_id == parent.id
    assert span.fields == {"sector": 40}


def test_render_spans_indents_by_depth():
    _, tr = make_tracer()
    root = tr.span_begin("read")
    child = tr.span_begin("getpage", parent=root)
    tr.span_end(child)
    tr.span_end(root)
    text = tr.render_spans()
    lines = text.splitlines()
    assert lines[0].startswith("read ")
    assert lines[1].startswith("  getpage ")


def test_to_jsonl_contains_records_then_spans():
    eng, tr = make_tracer()
    tr.emit("getpage_sync", offset=0)
    span = tr.span_begin("read", fd=3)
    tr.span_end(span)
    lines = [json.loads(line) for line in tr.to_jsonl().splitlines()]
    assert lines[0]["type"] == "meta"
    assert lines[0]["schema"] == "repro-trace/v1"
    assert lines[0]["records"] == 1
    assert lines[0]["spans"] == 1
    assert lines[1]["type"] == "record"
    assert lines[1]["tag"] == "getpage_sync"
    assert lines[2]["type"] == "span"
    assert lines[2]["name"] == "read"
    assert lines[2]["fd"] == 3
    assert len(lines) == 3


def test_to_jsonl_of_empty_tracer_is_its_meta_line():
    _, tr = make_tracer()
    # Even an empty trace carries its schema-versioned meta line.
    meta = json.loads(tr.to_jsonl())
    assert meta["type"] == "meta"
    assert meta["spans"] == 0


def test_select_and_render_records():
    _, tr = make_tracer()
    tr.emit("a", n=1)
    tr.emit("b", n=2)
    tr.emit("a", n=3)
    assert [r.n for r in tr.select("a")] == [1, 3]
    rendered = tr.render(lambda r: r.tag == "b")
    assert "b n=2" in rendered
    assert "a n=1" not in rendered


def test_clear_drops_records_and_spans():
    _, tr = make_tracer()
    tr.emit("a")
    span = tr.span_begin("read")
    tr.span_end(span)
    tr.clear()
    assert tr.records == []
    assert tr.spans == []
