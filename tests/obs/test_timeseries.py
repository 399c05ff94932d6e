"""Tests for the simulated-time telemetry recorder (repro.obs.timeseries)."""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import SERIES_SCHEMA, TelemetryRecorder
from repro.sim.engine import Engine
from repro.sim.stats import Histogram, StatSet, TimeWeighted


class FakeSystem:
    """The recorder only touches ``engine`` and ``metrics``."""

    def __init__(self):
        self.engine = Engine()
        self.metrics = MetricsRegistry(self.engine)


def drive(engine, seconds):
    """Run the engine up to ``seconds`` with a non-daemon anchor, so the
    daemon sampler timer actually gets instants to fire at."""

    def anchor():
        yield engine.timeout(seconds)

    engine.run_process(anchor())


def test_counter_series_is_windowed_deltas():
    sys_ = FakeSystem()
    stats = StatSet()
    sys_.metrics.register("io", stats)
    recorder = TelemetryRecorder(sys_, interval=0.010).start()

    def workload():
        for _ in range(4):
            stats.incr("reads", 3)
            yield sys_.engine.timeout(0.010)

    sys_.engine.run_process(workload())
    series = recorder.series("io", "reads")
    assert len(series) == 4
    # Each tick reports the delta since the last tick, not the total.
    assert [v for _, v in series] == [3.0, 3.0, 3.0, 3.0]
    assert [t for t, _ in series] == pytest.approx([0.01, 0.02, 0.03, 0.04])
    assert recorder.keys("io") == ["reads"]


def test_gauge_series_window_average_beats_aliasing():
    sys_ = FakeSystem()
    gauge = sys_.metrics.gauge("disk.qd")
    recorder = TelemetryRecorder(sys_, interval=0.010).start()

    def workload():
        # Busy only *between* sample instants: up at 2 ms, down at 7 ms.
        yield sys_.engine.timeout(0.002)
        gauge.set(4.0)
        yield sys_.engine.timeout(0.005)
        gauge.set(0.0)
        yield sys_.engine.timeout(0.013)

    sys_.engine.run_process(workload())
    values = [v for _, v in recorder.series("disk.qd", "value")]
    avgs = [v for _, v in recorder.series("disk.qd", "avg")]
    # Instantaneous sampling aliases to zero at both ticks...
    assert values[0] == 0.0 and values[1] == 0.0
    # ...but the window average sees the 5 ms of depth 4: 4 * 5/10 = 2.
    assert avgs[0] == pytest.approx(2.0)
    assert avgs[1] == pytest.approx(0.0)


def test_histogram_series_reports_window_count_and_mean():
    sys_ = FakeSystem()
    hist = Histogram()
    sys_.metrics.register("lat", hist)
    recorder = TelemetryRecorder(sys_, interval=0.010).start()

    def workload():
        hist.observe(1.0)
        hist.observe(3.0)
        yield sys_.engine.timeout(0.010)
        hist.observe(10.0)
        yield sys_.engine.timeout(0.010)

    sys_.engine.run_process(workload())
    counts = [v for _, v in recorder.series("lat", "count")]
    means = [v for _, v in recorder.series("lat", "mean")]
    assert counts == [2.0, 1.0]
    assert means[0] == pytest.approx(2.0)
    assert means[1] == pytest.approx(10.0)


def test_callable_namespace_flattened():
    sys_ = FakeSystem()
    sys_.metrics.register(
        "vm", lambda: {"freemem": 128, "nested": {"hits": 3}, "name": "x"})
    recorder = TelemetryRecorder(sys_, interval=0.010).start()
    drive(sys_.engine, 0.010)
    assert recorder.series("vm", "freemem") == [(pytest.approx(0.01), 128.0)]
    assert recorder.series("vm", "nested.hits")[0][1] == 3.0
    assert recorder.keys("vm") == ["freemem", "nested.hits"]


def test_namespace_selection_and_typo_raises():
    sys_ = FakeSystem()
    sys_.metrics.register("a", StatSet())
    sys_.metrics.register("b", StatSet())
    recorder = TelemetryRecorder(sys_, namespaces=["a"]).start()
    drive(sys_.engine, 0.010)
    assert recorder.rows[0].keys() == {"a"}
    with pytest.raises(ValueError, match=r"'typo' \(one of a, b\)"):
        TelemetryRecorder(sys_, namespaces=["a", "typo"]).start()
    with pytest.raises(ValueError):
        TelemetryRecorder(sys_, interval=0.0)


def test_stop_halts_sampling_but_keeps_series():
    sys_ = FakeSystem()
    sys_.metrics.register("io", StatSet())
    recorder = TelemetryRecorder(sys_, interval=0.010).start()
    drive(sys_.engine, 0.025)
    assert recorder.samples_taken == 2
    recorder.stop()
    drive(sys_.engine, 0.050)
    assert recorder.samples_taken == 2
    assert len(recorder.times) == 2
    recorder.stop()  # idempotent


def test_sampler_is_a_daemon_and_costs_no_simulated_time():
    sys_ = FakeSystem()
    sys_.metrics.register("io", StatSet())
    TelemetryRecorder(sys_, interval=0.010).start()
    drive(sys_.engine, 0.035)
    # The engine went idle at the anchor's end: the sampler never kept
    # the world alive past the last real work.
    assert sys_.engine.now == pytest.approx(0.035)


def test_to_json_document():
    sys_ = FakeSystem()
    sys_.metrics.register("io", StatSet())
    recorder = TelemetryRecorder(sys_, interval=0.010).start()
    drive(sys_.engine, 0.020)
    doc = recorder.to_json()
    assert doc["schema"] == SERIES_SCHEMA
    assert doc["interval"] == pytest.approx(0.010)
    assert doc["namespaces"] == ["io"]
    assert doc["samples"] == 2
    assert len(doc["times"]) == len(doc["rows"]) == 2


def test_render_sparkline():
    sys_ = FakeSystem()
    stats = StatSet()
    sys_.metrics.register("io", stats)
    recorder = TelemetryRecorder(sys_, interval=0.010).start()

    def workload():
        for i in range(5):
            stats.incr("reads", i)
            yield sys_.engine.timeout(0.010)

    sys_.engine.run_process(workload())
    text = recorder.render("io", "reads")
    assert text.startswith("io.reads [")
    assert "|" in text
    assert recorder.render("io", "nothing-sampled").count("|") == 2
