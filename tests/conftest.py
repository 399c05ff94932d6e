"""Suite-wide defaults.

The cross-layer invariant sanitizer (``repro.sim.invariants``) is on for
every test by default: each System built during a test checks the nine
simsan invariants at its quiesce points.  Because the environment variable
is inherited by subprocesses, the CLI smoke tests' campaign runs are
sanitized too.  Individual tests that *need* it off (e.g. to construct a
deliberately broken machine) set ``system.sanitizer.enabled = False``.
"""

import os

import pytest

os.environ.setdefault("REPRO_SANITIZE", "1")


@pytest.fixture
def invariant_cells():
    """``cells(campaign)``: a finished sweep's ``exact(0)`` cells, measured."""
    from repro.bench.experiments import sweep_cells, sweep_row

    return lambda campaign: {
        c.name: values[c.name] for values in [sweep_cells(campaign)]
        for c in sweep_row(campaign.name, {}, {})[0].cells
        if c.band == (0, 0) and c.name in values}
