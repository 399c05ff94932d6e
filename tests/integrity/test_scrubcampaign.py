"""The scrub campaign end-to-end: full detection, correct repairs,
seed-stable digests."""

from repro.integrity import ScrubCampaign


def test_campaign_detects_and_repairs_everything():
    campaign = ScrubCampaign(seed=3)
    campaign.run()
    stats = campaign.stats
    assert stats.injected == 10
    assert stats.detected == stats.injected
    assert stats.detect_misses == 0
    assert stats.outcome_mismatches == 0
    assert stats.verify_failures == 0
    assert stats.eio_misses == 0
    assert stats.residual_detected == 0
    assert stats.fsck_clean
    assert stats.ok
    # The ladder was actually exercised on every rung.
    assert stats.repaired_from_cache > 0
    assert stats.repaired_from_replica > 0
    assert stats.unrepairable > 0


def test_campaign_digest_is_seed_stable():
    first = ScrubCampaign(seed=3)
    first.run()
    second = ScrubCampaign(seed=3)
    second.run()
    assert first.stats.ok and second.stats.ok
    assert first.digest == second.digest

    other = ScrubCampaign(seed=11)
    other.run()
    assert other.stats.ok
    assert other.digest != first.digest


def test_campaign_json_document_is_complete():
    campaign = ScrubCampaign(seed=5)
    campaign.run()
    doc = campaign.to_json()
    assert doc["seed"] == 5
    assert doc["ok"] is True
    assert doc["digest"] == campaign.digest
    assert len(doc["records"]) == doc["stats"]["injected"]
    for inj in doc["records"]:
        assert inj["outcome"] in ("repaired:cache", "repaired:replica",
                                  "unrepairable")
