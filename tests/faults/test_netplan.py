"""Tests for the network fault plan (deterministic wire trouble)."""

import pytest

from repro.faults import NetDecision, NetFaultPlan
from repro.faults.netplan import ANY, DOWN, UP


def _history(plan, n=200, direction=UP):
    out = []
    for i in range(n):
        d = plan.decide(direction, now=i * 0.01)
        out.append((d.drop, d.duplicate, d.corrupt, d.delay)
                   if d is not None else None)
    return out


# -- determinism ---------------------------------------------------------------

def test_same_seed_same_history():
    kw = dict(drop_p=0.1, duplicate_p=0.05, corrupt_p=0.05, reorder_p=0.1,
              spike_p=0.02)
    a = _history(NetFaultPlan(seed=7, **kw))
    b = _history(NetFaultPlan(seed=7, **kw))
    assert a == b
    assert any(h is not None for h in a)  # the dice really roll


def test_different_seed_different_history():
    kw = dict(drop_p=0.2, corrupt_p=0.2)
    assert (_history(NetFaultPlan(seed=1, **kw))
            != _history(NetFaultPlan(seed=2, **kw)))


# -- per-message probabilities -------------------------------------------------

def test_fault_free_plan_decides_nothing():
    assert _history(NetFaultPlan()) == [None] * 200


def test_disabled_plan_decides_nothing():
    plan = NetFaultPlan(drop_p=1.0, partitions=[(0.0, 10.0)])
    plan.disabled = True
    assert _history(plan) == [None] * 200
    assert plan.stats.as_dict() == {}


def test_drop_probability_one_drops_everything():
    plan = NetFaultPlan(drop_p=1.0)
    assert all(h == (True, False, False, 0.0) for h in _history(plan))
    assert plan.stats["drops"] == 200


def test_stats_count_each_kind():
    plan = NetFaultPlan(seed=3, drop_p=0.2, duplicate_p=0.2, corrupt_p=0.2,
                        reorder_p=0.2, spike_p=0.2)
    _history(plan, n=500)
    for key in ("drops", "duplicates", "corrupts", "reorders", "spikes"):
        assert plan.stats[key] > 0


# -- scheduled one-shots -------------------------------------------------------

def test_scheduled_fault_fires_once_at_its_time():
    plan = NetFaultPlan(scheduled=[(0.5, UP, "drop")])
    assert plan.decide(UP, now=0.4) is None
    hit = plan.decide(UP, now=0.5)
    assert hit == NetDecision(drop=True)
    assert plan.decide(UP, now=0.6) is None  # consumed


def test_scheduled_fault_respects_direction():
    plan = NetFaultPlan(scheduled=[(0.0, DOWN, "corrupt")])
    assert plan.decide(UP, now=1.0) is None  # wrong direction: not consumed
    assert plan.decide(DOWN, now=1.0) == NetDecision(corrupt=True)


def test_scheduled_any_matches_either_direction():
    plan = NetFaultPlan(scheduled=[(0.0, ANY, "duplicate")])
    assert plan.decide(DOWN, now=0.1) == NetDecision(duplicate=True)


def test_scheduled_delays_use_configured_magnitudes():
    plan = NetFaultPlan(reorder_delay=0.007, spike_delay=0.9,
                        scheduled=[(0.0, ANY, "reorder"), (0.0, ANY, "spike")])
    assert plan.decide(UP, now=0.0).delay == 0.007
    assert plan.decide(UP, now=0.0).delay == 0.9


# -- partitions ----------------------------------------------------------------

def test_partition_window_drops_both_directions():
    plan = NetFaultPlan(partitions=[(1.0, 2.0)])
    assert plan.decide(UP, now=0.5) is None
    assert plan.decide(UP, now=1.5).drop
    assert plan.decide(DOWN, now=1.5).drop
    assert plan.decide(UP, now=2.0) is None  # end is exclusive
    assert plan.stats["partition_drops"] == 2


def test_link_down():
    plan = NetFaultPlan(partitions=[(1.0, 2.0), (5.0, 6.0)])
    assert not plan.link_down(0.9)
    assert plan.link_down(1.0)
    assert not plan.link_down(3.0)
    assert plan.link_down(5.5)


# -- validation ----------------------------------------------------------------

def test_probabilities_validated():
    with pytest.raises(ValueError):
        NetFaultPlan(drop_p=1.5)
    with pytest.raises(ValueError):
        NetFaultPlan(drop_p=0.6, corrupt_p=0.6)  # sum > 1
    with pytest.raises(ValueError):
        NetFaultPlan(reorder_delay=-1)
    with pytest.raises(ValueError):
        NetFaultPlan(partitions=[(2.0, 1.0)])  # empty window
    with pytest.raises(ValueError):
        NetFaultPlan(scheduled=[(0.0, "sideways", "drop")])
    with pytest.raises(ValueError):
        NetFaultPlan(scheduled=[(0.0, UP, "teleport")])
