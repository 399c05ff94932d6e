"""What end-to-end integrity costs.

Two claims from the issue:

* **Checksum overhead**: verifying every fragment on every read (and
  stamping on every write) must cost less than 15% of IObench sequential
  read throughput — the paper's extent-like numbers have to survive the
  robustness layer.
* **Scrub pacing**: a background scrub daemon makes progress during a
  foreground workload without gutting it — the throttle defers to
  foreground I/O rather than competing with it.

Emits ``BENCH_scrub.json`` at the repo root.
"""

from benchmarks.conftest import cold_sequential_read, write_patterned_file
from repro.bench.iobench import IObench
from repro.kernel import Proc, System, SystemConfig
from repro.units import MB

DOCUMENT = "BENCH_scrub.json"
RUN = {"benchmark": "scrub", "configs": "A", "file_mb": 4}
FILE_SIZE = RUN["file_mb"] * MB
#: The acceptance bound: checksummed sequential reads keep >= 85% of the
#: plain configuration's throughput.
MIN_SEQ_READ_FRACTION = 0.85


def _iobench_rates(checksums):
    bench = IObench(SystemConfig.config_a().with_(checksums=checksums),
                    file_size=FILE_SIZE)
    return bench.run().rates


def test_checksum_overhead(once, sections):
    def run():
        return {"off": _iobench_rates(False), "on": _iobench_rates(True)}

    rates = once(run)
    print()
    overhead = {}
    for phase in sorted(rates["off"]):
        off, on = rates["off"][phase], rates["on"][phase]
        overhead[phase] = 100.0 * (1.0 - on / off)
        print(f"{phase}: {off:7.0f} -> {on:7.0f} KB/s "
              f"({overhead[phase]:+5.1f}% overhead)")

    assert rates["on"]["FSR"] >= MIN_SEQ_READ_FRACTION * rates["off"]["FSR"]

    sections["checksum_overhead"] = {
        "rates_off": rates["off"],
        "rates_on": rates["on"],
        "overhead_pct": overhead,
        "seq_read_fraction": rates["on"]["FSR"] / rates["off"]["FSR"],
        "bound": MIN_SEQ_READ_FRACTION,
    }


def _seq_read_rate(daemon_interval):
    """Write then re-read a file cold; optionally with a scrub daemon."""
    cfg = SystemConfig.config_a().with_(checksums=True)
    system = System.booted(cfg)
    daemon = None
    if daemon_interval is not None:
        daemon = system.start_scrub(interval=daemon_interval, batch_frags=64)
    proc = Proc(system)
    write_patterned_file(system, proc, "/f", FILE_SIZE)
    digest, rate = cold_sequential_read(system, proc, "/f")
    scanned = daemon.report.frags_scanned if daemon is not None else 0
    detected = daemon.report.detected if daemon is not None else 0
    if daemon is not None:
        daemon.stop()
    return digest, rate, scanned, detected


def test_scrub_daemon_interference(once, sections):
    def run():
        base_digest, base_rate, _, _ = _seq_read_rate(None)
        digest, rate, scanned, detected = _seq_read_rate(0.02)
        return {"base_digest": base_digest, "base_rate": base_rate,
                "digest": digest, "rate": rate,
                "frags_scanned": scanned, "detected": detected}

    cell = once(run)
    print()
    print(f"seq read: {cell['base_rate']:7.0f} KB/s alone, "
          f"{cell['rate']:7.0f} KB/s with scrub daemon "
          f"({cell['frags_scanned']} frags scanned meanwhile)")

    # The daemon made progress, returned correct data everywhere, found
    # nothing wrong on a healthy disk, and left the workload most of the
    # disk (generous 2x bound: pacing, not parity).
    assert cell["digest"] == cell["base_digest"]
    assert cell["frags_scanned"] > 0
    assert cell["detected"] == 0
    assert cell["rate"] >= cell["base_rate"] / 2
    sections["daemon_interference"] = cell
