"""What trace analytics and telemetry cost — and what the series show.

Two claims from the issue:

* **Telemetry is free in simulated time**: a :class:`TelemetryRecorder`
  sampling every 10 ms of simulated time reads live counters from a
  daemon timer — it schedules no I/O and charges no CPU, so IObench's
  FSR/FSW rates with the recorder on must be within 1% of the rates
  with it off (they are in fact bit-identical).
* **The series are legible**: a scrub-daemon pass between two idle
  windows shows up as a clear bump in the ``disk.driver`` queue-depth
  series — telemetry can *bracket* background work, not just average
  over it — while ``vm.freemem`` records the write phase's page
  consumption.

Emits ``BENCH_trace.json`` at the repo root.
"""

from benchmarks.conftest import write_patterned_file
from repro.bench.iobench import IObench
from repro.kernel import Proc, System, SystemConfig
from repro.units import MB

DOCUMENT = "BENCH_trace.json"
RUN = {"benchmark": "trace_analytics", "file_mb": 4}
FILE_SIZE = RUN["file_mb"] * MB
#: The acceptance bound: 10 ms telemetry perturbs headline rates < 1%.
MAX_PERTURBATION = 0.01


def _rates(telemetry_interval):
    bench = IObench(SystemConfig.config_c(), file_size=FILE_SIZE,
                    telemetry_interval=telemetry_interval)
    result = bench.run()
    samples = bench.telemetry.samples_taken if bench.telemetry else 0
    return result.rates, samples


def test_telemetry_overhead(once, sections):
    def run():
        off, _ = _rates(None)
        on, samples = _rates(0.010)
        return {"off": off, "on": on, "samples": samples}

    cell = once(run)
    print()
    deltas = {}
    for phase in sorted(cell["off"]):
        off, on = cell["off"][phase], cell["on"][phase]
        deltas[phase] = abs(on - off) / off
        print(f"{phase}: {off:8.0f} KB/s off, {on:8.0f} KB/s with "
              f"telemetry ({deltas[phase] * 100:.3f}% delta)")
    print(f"({cell['samples']} samples at 10 ms simulated cadence)")

    assert cell["samples"] > 100  # the recorder actually ran
    assert deltas["FSR"] < MAX_PERTURBATION
    assert deltas["FSW"] < MAX_PERTURBATION

    sections["telemetry_overhead"] = {
        "rates_off": cell["off"],
        "rates_on": cell["on"],
        "samples": cell["samples"],
        "perturbation": deltas,
        "bound": MAX_PERTURBATION,
    }


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def _scrub_bracket():
    """Write a file, idle, run one scrub window, idle again — and watch
    the queue-depth and freemem series the whole way."""
    system = System.booted(SystemConfig.config_a().with_(checksums=True))
    recorder = system.start_telemetry(
        0.010, ["vm.freemem", "disk.driver.queue_depth"])

    def idle(seconds):
        def anchor():
            yield system.engine.timeout(seconds)

        system.run(anchor(), name="idle")

    write_patterned_file(system, Proc(system), "/f", FILE_SIZE)
    t_write_end = system.now
    idle(0.5)
    t_scrub_start = system.now
    daemon = system.start_scrub(interval=0.02, batch_frags=64)
    idle(1.0)
    daemon.stop()
    t_scrub_end = system.now
    idle(0.5)
    recorder.stop()

    qd = recorder.series("disk.driver.queue_depth", "avg")
    freemem = recorder.series("vm.freemem", "value")
    windows = {
        "before": _mean([v for t, v in qd
                         if t_write_end < t <= t_scrub_start]),
        "during": _mean([v for t, v in qd
                         if t_scrub_start < t <= t_scrub_end]),
        "after": _mean([v for t, v in qd if t > t_scrub_end]),
    }
    return {
        "frags_scanned": daemon.report.frags_scanned,
        "samples": recorder.samples_taken,
        "queue_depth_windows": windows,
        "freemem_min": min(v for _, v in freemem),
        "freemem_max": max(v for _, v in freemem),
    }


def test_series_bracket_scrub_pass(once, sections):
    cell = once(_scrub_bracket)
    print()
    w = cell["queue_depth_windows"]
    print(f"disk.driver queue depth: {w['before']:.4f} before the scrub "
          f"pass, {w['during']:.4f} during, {w['after']:.4f} after "
          f"({cell['frags_scanned']} frags scanned)")
    print(f"vm.freemem: {cell['freemem_max']:.0f} -> "
          f"{cell['freemem_min']:.0f} pages across the write phase")

    # The scrub pass is visibly bracketed: idle windows on both sides
    # show an (almost) empty queue, the pass itself keeps the disk busy.
    assert cell["frags_scanned"] > 0
    assert w["during"] > 10 * max(w["before"], 1e-6)
    assert w["after"] < w["during"] / 10
    # And the write phase consumed pages the series can see.
    assert cell["freemem_min"] < cell["freemem_max"]

    sections["scrub_bracket"] = cell
