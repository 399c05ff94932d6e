"""perfbench: the repo's one benchmark.

It measures the simulator on two clocks and names the clock on every
number: **host** seconds are this machine's (``perf_counter``), **sim**
seconds are the simulated 1991 machine's (exact for a seed).  Five
workloads drive the simulator through its public API only; see
``perfbench/README.md`` for the metric glossary and how the per-layer
numbers are expected to move the end-to-end ones.

The simulator lives in ``src/`` next to this package and is not
installed, so importing perfbench puts that directory first on
``sys.path``.
"""

import sys
from pathlib import Path

#: The checkout root: BENCHMARK.json and ``src/repro`` live here.
ROOT = Path(__file__).resolve().parent.parent

_SRC = str(ROOT / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
