"""Shared fixtures for the fault-campaign tests."""

import pytest

from repro.faults import CrashpointExplorer
from repro.sim.invariants import sanitizing
from repro.vm import Page, PageCache


def count_page_buffers(patch):
    """Count, from now until ``patch`` is undone, the machines built and the
    page frames that got a buffer (a frame's first ``name()``)."""
    ledger = {"machines": 0, "buffers": 0}
    real_init, real_name = PageCache.__init__, Page.name

    def counting_init(self, *args, **kwargs):
        ledger["machines"] += 1
        real_init(self, *args, **kwargs)

    def counting_name(self, vnode, offset):
        ledger["buffers"] += self.data is None
        real_name(self, vnode, offset)

    patch.setattr(PageCache, "__init__", counting_init)
    patch.setattr(Page, "name", counting_name)
    return ledger


def sanitized_run(explorer):
    """``explorer``, after a run whose every machine is born sanitized."""
    with sanitizing(True):
        explorer.run()
    return explorer


@pytest.fixture(scope="session")
def smoke_explorer():
    """The sanitized smoke exploration (~3 s): run once, read by the
    crash-point tests and by the campaign goldens.  ``page_ledger`` is what
    its machines cost in page frames (ROADMAP item 3's ledger row)."""
    explorer = CrashpointExplorer("smoke", seed=0)
    with pytest.MonkeyPatch.context() as patch, sanitizing(True):
        explorer.page_ledger = count_page_buffers(patch)
        explorer.run()
    return explorer


@pytest.fixture(scope="session")
def writethrough_explorer():
    """The sanitized exploration of the paper's write-through drive, read
    by the crash-point tests and by the campaign goldens."""
    return sanitized_run(CrashpointExplorer("writethrough", seed=0))


@pytest.fixture(scope="session")
def nfs_explorer():
    """The sanitized exploration of an NFS server's drive under a client's
    fsyncs, read by the crash-point tests and by the campaign goldens."""
    return sanitized_run(CrashpointExplorer("nfs", seed=0))


@pytest.fixture(scope="session")
def mirror_explorer():
    """The sanitized exploration of a mirror:2 volume (each leg's crash
    states and each leg's death), read by the crash-point tests and by the
    campaign goldens."""
    return sanitized_run(CrashpointExplorer("mirror", seed=0))


@pytest.fixture(scope="session")
def stripe_explorer():
    """The sanitized exploration of a stripe:2 volume (the product of its
    members' crash states), read by the crash-point tests and by the
    campaign goldens."""
    return sanitized_run(CrashpointExplorer("stripe", seed=0))
