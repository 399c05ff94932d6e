"""Tests for the network-fault campaign."""

import pytest

from repro.faults import NetCampaign, NetFaultPlan
from repro.nfs.server import NfsServer


def test_small_sweep_holds_every_invariant(invariant_cells):
    campaign = NetCampaign(seeds=4)
    stats = campaign.run()
    assert set(invariant_cells(campaign).values()) == {0}
    assert stats.runs == 4
    assert stats.acked_files > 0 and stats.acked_bytes > 0
    assert stats.removes > 0
    # The sweep must actually exercise the hardening, not idle through.
    assert stats.retransmits > 0
    assert stats.drops_injected > 0
    assert stats.drc_hits > 0
    assert campaign.stats is stats


def test_same_base_seed_reproduces_the_sweep():
    a = NetCampaign(seeds=3).run()
    b = NetCampaign(seeds=3).run()
    assert a == b
    assert a.determinism_failures == 0  # the built-in replay check agreed


def test_plan_derivation_is_seed_stable():
    campaign = NetCampaign(seeds=1)
    campaign._window = (0.05, 0.5)
    p1, p2 = campaign._plan_for(9), campaign._plan_for(9)
    assert (p1.drop_p, p1.partitions) == (p2.drop_p, p2.partitions)
    assert isinstance(p1, NetFaultPlan)


def test_validation():
    with pytest.raises(ValueError):
        NetCampaign(seeds=0)


def test_a_file_that_grew_past_its_promise_is_a_corrupt_serve(
        monkeypatch, invariant_cells):
    """A server WRITE at a file's tail that also lands its data again
    just past it leaves the file longer than its fsynced content, the
    promised prefix intact.  The bytes past the promised end match no
    version the client wrote: the check reads them, not only the prefix."""
    real = NfsServer._op_write

    def write_tail_twice(self, handle, offset, data):
        n = yield from real(self, handle, offset, data)
        vn = yield from self.mount.iget(handle)
        if offset + len(data) >= vn.size:
            yield from real(self, handle, offset + len(data), data)
        return n

    monkeypatch.setattr(NfsServer, "_op_write", write_tail_twice)
    campaign = NetCampaign(seeds=1)
    campaign.run()
    assert invariant_cells(campaign)["corrupt cache serves"] > 0
