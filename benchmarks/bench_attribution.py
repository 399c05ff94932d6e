"""Where does the time go?  Layer attribution for the paper's A/C gap.

The paper's whole story is that clustering converts per-block rotational
waits into long transfers.  The attribution table makes that visible as
numbers: run IObench on config A (8 KB blocks, 56 KB clusters) and
config C (no clustering) with every phase traced, split each request's
lifetime into cpu / queue_wait / rotation_seek / transfer / throttle_wait
/ rpc / other_io, and demand the mechanism shows up:

* conservation — every kind's categories sum to its total (the sweep
  drops and double-counts nothing);
* config C's sequential reads spend a *larger share* of their disk time
  on rotation+seek than config A's — exactly the per-block rotational
  latency clustering amortizes away.

Writes nothing: this is the run ``BENCH_baseline.json`` commits
(``python -m repro bench --configs AC --file-mb 2 --ops 128``), and the
per-kind tables are its ``attribution`` sections.
"""

import pytest

from repro.obs.attrib import render_attribution
from repro.obs.bench import run_bench


def _mech_share(row):
    """rotation_seek's share of the row's disk (non-cpu) time."""
    cats = row["categories"]
    disk = sum(v for k, v in cats.items() if k != "cpu")
    return cats["rotation_seek"] / disk if disk > 0 else 0.0


def test_attribution_a_vs_c(once):
    results = once(lambda: run_bench("AC", 2, 128))["results"]
    print()
    for name, cell in results.items():
        print(f"config {name} (FSR {cell['rates']['FSR']:.0f} KB/s):")
        print(render_attribution(cell["attribution"]))
        print()

    for name, cell in results.items():
        for kind, row in cell["attribution"].items():
            total = sum(row["categories"].values())
            assert total == pytest.approx(row["total"]), (name, kind)

    reads_a = results["A"]["attribution"]["read"]
    reads_c = results["C"]["attribution"]["read"]
    # The paper's mechanism: without clustering, a larger slice of every
    # read's disk time is spent waiting on the platter.
    assert _mech_share(reads_c) > _mech_share(reads_a)
    assert results["A"]["rates"]["FSR"] > results["C"]["rates"]["FSR"]
