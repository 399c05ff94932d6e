"""Performance observability: one registry, one attribution table, one
benchmark document.

The paper's whole argument is quantitative — figure-by-figure transfer
rates and CPU-per-byte — so the reproduction's perf story has to be held
to the same standard.  This package gives it three legs:

* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` attached to every
  :class:`~repro.kernel.system.System`, consolidating the per-layer
  counters, gauges, and histograms (driver retries, page-cache hits,
  throttle waits, write-cache destages, checksum errors, scrub progress,
  per-volume-member I/O) behind one namespaced ``snapshot()``, the only
  source of numbers the ``iobench`` pipeline lines and BENCH cells read;
* :mod:`repro.obs.attrib` — per-layer *time attribution* computed from the
  request span trees: for any traced run, a table of where simulated time
  went (cpu / queue_wait / rotation_seek / transfer / throttle_wait /
  rpc) per request kind;
* :mod:`repro.obs.bench` — :func:`run_bench`, the ``baseline`` row's
  IObench matrix as one schema-versioned ``BENCH.json`` (byte-identical
  across same-seed runs), the only writer of any file or stdout document the CLI
  emits, and a differ for two BENCH documents that explains a committed
  document ``python -m repro report`` no longer reproduces;
* :mod:`repro.obs.critpath` — per-request critical-path extraction: for
  each completed request, the chain of child spans that determined its
  latency, with per-layer blame totals (conserving the request's elapsed
  time exactly) and a "slowest requests, dominated by X" report;
* :mod:`repro.obs.export` — byte-deterministic exporters from span trees
  to Chrome trace-event JSON (``chrome://tracing`` / Perfetto) and
  collapsed folded-stack lines for standard flamegraph tools;
* :mod:`repro.obs.timeseries` — a :class:`TelemetryRecorder` sampling
  registry namespaces on a fixed simulated-time cadence (windowed deltas
  for counters/histograms, window-averaged gauges), so throughput and
  queue-depth *curves* over a run can be exported and asserted on.
"""

from repro.obs.attrib import (
    ATTRIBUTION_CATEGORIES, attribution_table, render_attribution,
)
from repro.obs.bench import BENCH_SCHEMA, diff_documents, run_bench
from repro.obs.critpath import (
    CritReport, critical_path, critical_paths, verify_against_attribution,
    verify_conservation,
)
from repro.obs.export import chrome_trace, chrome_trace_json, folded_stacks
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import TelemetryRecorder

__all__ = [
    "ATTRIBUTION_CATEGORIES",
    "BENCH_SCHEMA",
    "CritReport",
    "MetricsRegistry",
    "TelemetryRecorder",
    "attribution_table",
    "chrome_trace",
    "chrome_trace_json",
    "critical_path",
    "critical_paths",
    "diff_documents",
    "folded_stacks",
    "render_attribution",
    "run_bench",
    "verify_against_attribution",
    "verify_conservation",
]
