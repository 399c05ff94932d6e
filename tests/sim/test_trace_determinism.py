"""Per-tracer span ids, the incremental tree index, and JSONL round trips."""

import pytest

from repro.sim.engine import Engine
from repro.sim.trace import TRACE_SCHEMA, Tracer, load_jsonl


def make_tracer():
    eng = Engine()
    return eng, Tracer(eng, enabled=True)


# -- per-tracer ids (regression: they used to be a module-global counter) -----

def test_span_ids_are_per_tracer():
    eng = Engine()
    t1 = Tracer(eng, enabled=True)
    t2 = Tracer(eng, enabled=True)
    a = t1.span_begin("read")
    b = t2.span_begin("read")
    # A second tracer in the same process starts from 1 again: exported
    # traces no longer depend on what other System instances did first.
    assert a.id == 1
    assert b.id == 1
    assert t1.span_begin("getpage").id == 2


def test_clear_restarts_span_ids():
    _, tr = make_tracer()
    tr.span_end(tr.span_begin("read"))
    tr.clear()
    assert tr.span_begin("read").id == 1


def test_two_fresh_tracers_export_identical_bytes():
    def build():
        _, tr = make_tracer()
        root = tr.record_span("read", 0.0, 0.010, request=1)
        tr.record_span("queue_wait", 0.001, 0.004, parent=root)
        tr.emit("getpage_sync", offset=0)
        return tr.to_jsonl()

    assert build() == build()


# -- incremental tree index (regression: span_children rescanned all spans) ---

class CountingSpanList(list):
    """A list proxy that counts full scans of the span list."""

    def __init__(self, items):
        super().__init__(items)
        self.scans = 0

    def __iter__(self):
        self.scans += 1
        return super().__iter__()


def build_wide_trace(n_roots=100, kids_per_root=99):
    _, tr = make_tracer()
    for r in range(n_roots):
        root = tr.record_span("read", 0.0, 1.0, request=r)
        for _ in range(kids_per_root):
            tr.record_span("getpage", 0.1, 0.9, parent=root)
    return tr


def test_tree_walks_never_rescan_the_span_list():
    tr = build_wide_trace()  # 10_000 spans
    proxy = CountingSpanList(tr.spans)
    tr.spans = proxy
    roots = tr.span_roots()
    assert len(roots) == 100
    for root in roots:
        assert len(tr.span_children(root)) == 99
        assert len(tr.span_tree(root)) == 100
    text = tr.render_spans()
    assert text.count("\n") + 1 == 10_000
    # The whole walk is served from the incrementally-maintained index:
    # not one O(n) rescan of the 10k-span list.
    assert proxy.scans == 0


def test_children_index_matches_span_children():
    tr = build_wide_trace(n_roots=3, kids_per_root=2)
    index = tr.children_index()
    for root in tr.span_roots():
        assert index[root.id] == tr.span_children(root)
        assert tr.span_by_id(root.id) is root


# -- open spans ---------------------------------------------------------------

def test_open_spans_and_trace_end():
    eng, tr = make_tracer()
    done = tr.record_span("read", 0.0, 0.010, request=1)
    leaked = tr.span_begin("queue_wait", parent=done)
    tr.emit("getpage_sync", offset=0)
    assert tr.open_spans() == [leaked]
    assert leaked.duration == 0.0  # the silent zero analyzers must not trust
    assert tr.trace_end() == pytest.approx(0.010)


# -- JSONL round trip ---------------------------------------------------------

def test_load_jsonl_round_trips_spans_and_records():
    _, tr = make_tracer()
    root = tr.record_span("read", 0.0, 0.010, request=7)
    tr.record_span("queue_wait", 0.001, 0.004, parent=root, buf=3)
    tr.emit("getpage_sync", offset=8192)
    loaded = load_jsonl(tr.to_jsonl())
    assert loaded.to_jsonl() == tr.to_jsonl()
    assert not loaded.enabled
    assert [r.name for r in loaded.span_roots()] == ["read"]
    assert loaded.span_children(loaded.span_roots()[0])[0].fields["buf"] == 3
    assert loaded.records[0].tag == "getpage_sync"
    # Ids keep counting past the loaded ones (were the tracer re-enabled).
    assert next(loaded._span_ids) == 3


def test_load_jsonl_rejects_bad_documents():
    with pytest.raises(ValueError):
        load_jsonl("")
    with pytest.raises(ValueError):
        load_jsonl('{"type": "record", "time": 0, "tag": "x"}')
    bad_schema = '{"type": "meta", "schema": "other/v9", "records": 0, "spans": 0}'
    with pytest.raises(ValueError):
        load_jsonl(bad_schema)
    orphan = "\n".join([
        '{"type": "meta", "schema": "%s", "records": 0, "spans": 1}'
        % TRACE_SCHEMA,
        '{"type": "span", "id": 2, "parent": 99, "name": "x",'
        ' "begin": 0.0, "end": 1.0}',
    ])
    with pytest.raises(ValueError):
        load_jsonl(orphan)


def test_load_jsonl_refuses_a_trace_cut_at_a_line_boundary():
    _, tr = make_tracer()
    root = tr.record_span("read", 0.0, 0.010, request=7)
    tr.record_span("queue_wait", 0.001, 0.004, parent=root)
    tr.record_span("transfer", 0.004, 0.009, parent=root)
    tr.emit("getpage_sync", offset=0)
    lines = tr.to_jsonl().splitlines()
    assert len(load_jsonl("\n".join(lines)).spans) == 3
    # Every remaining line parses and every parent exists: only the schema
    # line's counts say a span is missing.
    with pytest.raises(ValueError, match="declares 3 spans, found 2"):
        load_jsonl("\n".join(lines[:-1]))
    with pytest.raises(ValueError, match="declares 1 records, found 0"):
        load_jsonl("\n".join(lines[:1] + lines[2:]))
