"""Shared fixtures for the fault-campaign tests."""

import pytest

from repro.faults import CrashpointExplorer


@pytest.fixture(scope="session")
def smoke_explorer():
    """The sanitized smoke exploration (~3 s): run once, read by the
    crash-point tests and by the campaign goldens."""
    explorer = CrashpointExplorer("smoke", seed=0, sanitize=True)
    explorer.run()
    return explorer
