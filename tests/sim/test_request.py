"""Tests for IORequest and RequestRegistry: spans, accounting, lifecycle."""

from repro.disk import Buf, BufOp
from repro.obs.metrics import MetricsRegistry
from repro.sim import Engine, IORequest, RequestRegistry, Tracer


def make_registry(enabled=False):
    eng = Engine()
    tracer = Tracer(eng, enabled=enabled)
    return eng, tracer, RequestRegistry(eng, MetricsRegistry(eng), tracer)


def test_request_without_tracing_has_no_spans():
    eng, _, registry = make_registry(enabled=False)
    req = registry.start("read", origin="proc", fd=3)
    assert req.root is None
    span = req.begin("getpage")
    assert span is None
    req.end(span)
    req.complete()
    assert req.finished_at == eng.now


def test_request_span_stack_nests():
    _, tracer, registry = make_registry(enabled=True)
    req = registry.start("read")
    assert req.root is not None
    assert req.current_span is req.root
    outer = req.begin("getpage")
    inner = req.begin("cluster_read")
    assert req.current_span is inner
    assert inner.parent_id == outer.id
    req.end(inner)
    assert req.current_span is outer
    req.end(outer)
    req.complete()
    assert req.root.end is not None


def test_request_tolerates_out_of_order_end():
    _, _, registry = make_registry(enabled=True)
    req = registry.start("read")
    outer = req.begin("getpage")
    inner = req.begin("cluster_read")
    req.end(outer)  # closed before its child
    assert req.current_span is inner
    req.end(inner)
    req.complete()


def test_io_done_counts_and_records_disk_spans():
    eng, tracer, registry = make_registry(enabled=True)
    req = registry.start("read")
    buf = Buf(eng, BufOp.READ, sector=40, nsectors=16)
    buf.request = req
    buf.parent_span = req.current_span
    buf.issued_at = 1.0
    buf.started_at = 2.0
    buf.finished_at = 3.5

    req.io_done(buf)
    assert req.ios == 1
    assert req.bytes == 16 * 512

    names = {s.name for s in tracer.spans}
    assert {"read", "disk_io", "queue_wait", "service"} <= names
    disk_io = next(s for s in tracer.spans if s.name == "disk_io")
    assert disk_io.parent_id == req.root.id
    assert disk_io.begin == 1.0 and disk_io.end == 3.5
    queue_wait = next(s for s in tracer.spans if s.name == "queue_wait")
    assert queue_wait.parent_id == disk_io.id
    assert queue_wait.begin == 1.0 and queue_wait.end == 2.0
    service = next(s for s in tracer.spans if s.name == "service")
    assert service.begin == 2.0 and service.end == 3.5


def test_complete_is_idempotent():
    eng, _, registry = make_registry()

    def proc():
        req = registry.start("write")
        yield eng.timeout(2.0)
        req.complete()
        yield eng.timeout(1.0)
        req.complete()  # second call ignored
        return req

    req = eng.run_process(proc())
    assert req.finished_at == 2.0
    assert req.elapsed == 2.0
    assert registry.stats["completed"] == 1


def test_registry_latency_histograms_per_kind():
    eng = Engine()
    metrics = MetricsRegistry(eng)
    registry = RequestRegistry(eng, metrics)

    def proc():
        r1 = registry.start("read")
        yield eng.timeout(0.010)
        r1.complete()
        r2 = registry.start("write")
        yield eng.timeout(0.030)
        r2.complete()

    eng.run_process(proc())
    snap = metrics.snapshot()
    assert snap["requests"]["started"] == 2
    assert snap["requests"]["read_started"] == 1
    assert set(snap["requests.latency"]) == {"read", "write"}
    assert snap["requests.latency"]["read"]["count"] == 1
    assert snap["requests.latency"]["read"]["mean"] > 0
    assert snap["requests.inflight"]["max"] == 1


def test_registry_counts_errors():
    _, _, registry = make_registry()
    req = registry.start("read")
    req.complete(error=IOError("boom"))
    assert registry.stats["errors"] == 1
    assert registry.stats["read_errors"] == 1
    assert req.error is not None


def test_standalone_request_needs_no_registry():
    eng = Engine()
    req = IORequest(eng, "read")
    req.complete()
    assert req.finished_at is not None
