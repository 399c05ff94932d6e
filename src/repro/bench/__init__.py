"""Benchmark harnesses reproducing the paper's evaluation.

* :mod:`experiments` — the experiment table: one row per experiment, every
  published number with the paper's value and a two-sided band
  (``python -m repro report``);
* :mod:`iobench` — the IObench workload (figure 10's FSR/FSU/FSW/FRR/FRU
  columns) over the figure 9 configurations;
* :mod:`cpubench` — the mmap-interface CPU comparison (figure 12);
* :mod:`musbus` — a MusBus-like multi-user timesharing workload ("didn't
  move any substantial amount of data");
* :mod:`agefs` — file system aging (create/delete churn) and extent-size
  measurement, reproducing the allocator-contiguity observations;
* :mod:`report` — the paper's figures 10-12 and the report of the
  experiment table: one markdown block per row, which ``python -m repro
  iobench`` also prints figures 10/11 through.
"""

from repro.bench.agefs import age_filesystem, measure_extents
from repro.bench.cpubench import CpuBenchResult, run_cpu_bench
from repro.bench.iobench import IObench, IObenchResult
from repro.bench.musbus import MusbusResult, run_musbus

__all__ = [
    "CpuBenchResult",
    "IObench",
    "IObenchResult",
    "MusbusResult",
    "age_filesystem",
    "measure_extents",
    "run_cpu_bench",
    "run_musbus",
]
