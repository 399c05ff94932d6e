"""Suite-wide defaults.

The cross-layer invariant sanitizer (``repro.sim.invariants``) is on for
every test by default: each System built during a test checks the eight
simsan invariants at its quiesce points, boot included.  Because the
environment variable is inherited by subprocesses, the CLI smoke tests'
campaign runs are sanitized too.  A test that runs a campaign or IObench
with the sanitizer forced one way builds its machines inside
``sanitizing(on)``; a test that *needs* it off on one machine (e.g. to
construct a deliberately broken one) sets ``system.sanitizer.enabled``.
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
