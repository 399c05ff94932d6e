"""Shared fixtures for the fault-campaign tests."""

import pytest

from repro.faults import CrashpointExplorer
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


@pytest.fixture(scope="session")
def smoke_explorer():
    """The sanitized smoke exploration (~3 s): run once, read by the
    crash-point tests and by the campaign goldens.  ``page_ledger`` is what
    its machines cost in page frames (ROADMAP item 3's ledger row)."""
    explorer = CrashpointExplorer("smoke", seed=0, sanitize=True)
    with pytest.MonkeyPatch.context() as patch:
        explorer.page_ledger = count_page_buffers(patch)
        explorer.run()
    return explorer
