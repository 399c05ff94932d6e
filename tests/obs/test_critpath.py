"""Tests for critical-path extraction (repro.obs.critpath)."""

import pytest

from repro.bench.iobench import IObench
from repro.kernel.config import SystemConfig
from repro.obs.attrib import attribution_table
from repro.obs.critpath import (
    critical_path, critical_paths, span_category, verify_against_attribution,
    verify_conservation,
)
from repro.sim.engine import Engine
from repro.sim.trace import Tracer
from repro.units import MB


def make_tracer():
    eng = Engine()
    return eng, Tracer(eng, enabled=True)


def ms(n):
    return n * 1e-3


# -- unit sweeps ---------------------------------------------------------------

def test_single_chain_blames_each_interval():
    _, tr = make_tracer()
    root = tr.record_span("read", ms(0), ms(10), request=1)
    svc = tr.record_span("service", ms(2), ms(8), parent=root)
    tr.record_span("rotation_seek", ms(2), ms(5), parent=svc)
    tr.record_span("transfer", ms(5), ms(8), parent=svc)

    path = critical_path(tr, root)
    assert path.latency == pytest.approx(ms(10))
    assert path.path_time == pytest.approx(path.latency)
    cats = path.categories()
    assert cats["cpu"] == pytest.approx(ms(4))  # 0-2 and 8-10 on the root
    assert cats["rotation_seek"] == pytest.approx(ms(3))
    assert cats["transfer"] == pytest.approx(ms(3))
    assert cats["other_io"] == 0.0  # service fully covered by its children
    assert path.dominant() == "cpu"
    assert [seg.span.name for seg in path.segments] == [
        "read", "rotation_seek", "transfer", "read"]


def test_service_own_time_is_other_io():
    _, tr = make_tracer()
    root = tr.record_span("read", ms(0), ms(6), request=1)
    tr.record_span("service", ms(1), ms(5), parent=root)
    cats = critical_path(tr, root).categories()
    assert cats["other_io"] == pytest.approx(ms(4))
    assert cats["cpu"] == pytest.approx(ms(2))


def test_overlapping_sibling_waits_agree_with_attrib():
    # Two concurrent member I/Os under one request (clustered readahead):
    # the wait spans overlap, and the sweep must still agree with attrib's
    # priority rules (queue_wait beats transfer on the category tiebreak).
    _, tr = make_tracer()
    root = tr.record_span("read", ms(0), ms(10), request=1)
    io_a = tr.record_span("disk_io", ms(1), ms(4), parent=root)
    tr.record_span("queue_wait", ms(1), ms(4), parent=io_a)
    io_b = tr.record_span("disk_io", ms(2), ms(7), parent=root)
    svc = tr.record_span("service", ms(2), ms(7), parent=io_b)
    tr.record_span("transfer", ms(2), ms(6), parent=svc)

    report = critical_paths(tr)
    assert verify_conservation(report) == []
    assert verify_against_attribution(tr, report) == []
    cats = report.paths[0].categories()
    assert cats["queue_wait"] == pytest.approx(ms(3))
    assert cats["transfer"] == pytest.approx(ms(2))  # only 4..6 survives
    assert cats["other_io"] == pytest.approx(ms(1))  # service 6..7
    assert cats["cpu"] == pytest.approx(ms(4))


def test_deepest_structural_span_wins_cpu_stretches():
    _, tr = make_tracer()
    root = tr.record_span("read", ms(0), ms(6), request=1)
    gp = tr.record_span("getpage", ms(1), ms(5), parent=root)
    tr.record_span("cluster_read", ms(2), ms(3), parent=gp)
    names = [seg.span.name for seg in critical_path(tr, root).segments]
    assert names == ["read", "getpage", "cluster_read", "getpage", "read"]


# -- open spans ----------------------------------------------------------------

def test_open_root_raises_and_is_counted_by_report():
    _, tr = make_tracer()
    open_root = tr.record_span("read", ms(0), ms(1), request=1)
    open_root.end = None
    tr.record_span("write", ms(0), ms(2), request=2)
    with pytest.raises(ValueError):
        critical_path(tr, open_root)
    report = critical_paths(tr)
    assert report.open_roots == 1
    assert [p.root.name for p in report.paths] == ["write"]
    assert "1 request(s) still open" in report.render()


def test_open_descendant_clamped_to_root_end_and_counted():
    _, tr = make_tracer()
    root = tr.record_span("read", ms(0), ms(10), request=1)
    leaked = tr.record_span("queue_wait", ms(4), ms(5), parent=root)
    leaked.end = None
    path = critical_path(tr, root)
    assert path.open_spans == 1
    assert path.path_time == pytest.approx(path.latency)
    # The leaked wait is clamped to the root's end, never zeroed.
    assert path.categories()["queue_wait"] == pytest.approx(ms(6))
    report = critical_paths(tr)
    assert report.open_spans == 1
    assert "open child span(s)" in report.render()


# -- report shape --------------------------------------------------------------

def test_report_by_kind_and_top():
    _, tr = make_tracer()
    for i, latency in enumerate((ms(5), ms(20), ms(1))):
        tr.record_span("read", 0.0, latency, request=i + 1)
    tr.record_span("write", 0.0, ms(3), request=9)
    report = critical_paths(tr)
    table = report.by_kind()
    assert list(table) == ["read", "write"]
    assert table["read"]["requests"] == 3
    assert table["read"]["total"] == pytest.approx(ms(26))
    top = report.top(2)
    assert [p.latency for p in top] == [pytest.approx(ms(20)),
                                        pytest.approx(ms(5))]
    doc = report.to_json()
    assert doc["requests"] == 4
    assert doc["slowest"][0]["latency"] == pytest.approx(ms(20))


def test_span_category_defaults():
    assert span_category("queue_wait") == "queue_wait"
    assert span_category("mem_wait") == "throttle_wait"
    assert span_category("service") == "other_io"
    assert span_category("read") == "cpu"
    assert span_category("disk_io[m2]") == "cpu"


# -- acceptance: seeded config-C iobench read phase ---------------------------

@pytest.fixture(scope="module")
def traced_fsr():
    bench = IObench(SystemConfig.by_name("C"), file_size=1 * MB,
                    random_ops=32, seed=1991, trace_phase="FSR")
    bench.run()
    return bench.system.tracer


def test_iobench_fsr_conservation(traced_fsr):
    report = critical_paths(traced_fsr)
    assert report.paths, "traced FSR phase produced no completed requests"
    assert report.open_roots == 0
    assert report.open_spans == 0
    assert verify_conservation(report) == []
    for path in report.paths:
        assert path.path_time == pytest.approx(path.latency, abs=1e-9)


def test_iobench_fsr_agrees_with_attribution(traced_fsr):
    report = critical_paths(traced_fsr)
    assert verify_against_attribution(traced_fsr, report) == []
    # And the cross-check is not vacuous: the trace has real disk time.
    table = attribution_table(traced_fsr)
    assert table["read"]["categories"]["rotation_seek"] > 0
