"""The scrub campaign end-to-end: full detection, correct repairs,
seed-stable digests."""

from repro.integrity import ScrubCampaign


def test_campaign_detects_and_repairs_everything(invariant_cells):
    campaign = ScrubCampaign(seed=3)
    campaign.run()
    stats = campaign.stats
    assert stats.injected == 10
    assert stats.detected == stats.injected
    # No miss, mismatch, bad repair, EIO miss or residue; fsck clean.
    assert set(invariant_cells(campaign).values()) == {0}
    # The ladder was actually exercised on every rung.
    assert stats.repaired_from_cache > 0
    assert stats.repaired_from_replica > 0
    assert stats.unrepairable > 0


def test_campaign_digest_is_seed_stable(invariant_cells):
    first = ScrubCampaign(seed=3)
    first.run()
    second = ScrubCampaign(seed=3)
    second.run()
    assert set(invariant_cells(first).values()) == {0}
    assert set(invariant_cells(second).values()) == {0}
    assert first.digest == second.digest

    other = ScrubCampaign(seed=11)
    other.run()
    assert set(invariant_cells(other).values()) == {0}
    assert other.digest != first.digest


def test_campaign_json_document_is_complete(invariant_cells):
    """``--json`` carries the cells and one record per injection."""
    from repro.bench.experiments import sweep_cells

    campaign = ScrubCampaign(seed=5)
    campaign.run()
    cells = sweep_cells(campaign)
    assert set(invariant_cells(campaign).values()) == {0}
    assert cells["digest"] == campaign.digest
    assert len(campaign.records) == cells["injected"]
    for inj in campaign.records:
        assert inj["outcome"] in ("repaired:cache", "repaired:replica",
                                  "unrepairable")
