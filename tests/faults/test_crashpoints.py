"""The crash-point exploration engine: enumeration, verification,
determinism, and the pinning test for the relocation durability bug.
"""

import pytest

from repro.faults import CrashpointExplorer, PRESETS
from repro.faults.harness import small_config


def explore(preset, seed):
    explorer = CrashpointExplorer(preset, seed=seed)
    explorer.run()
    return explorer


def test_presets_are_wired():
    for name, preset in PRESETS.items():
        assert preset.name == name
        assert preset.description
    assert "smoke" in PRESETS and "relocate" in PRESETS


def test_explorer_rejects_bad_window():
    with pytest.raises(ValueError):
        CrashpointExplorer(PRESETS["smoke"], window=0)


@pytest.mark.parametrize("layout", ["mirror:2", "stripe:2"])
def test_explorer_rejects_multi_member_layouts(layout):
    """The journal is one drive's write cache; a volume used to die in the
    recorder's self-check ("journal/data-plane incoherence") instead."""
    with pytest.raises(ValueError, match=f"layout {layout}.*one drive"):
        CrashpointExplorer("smoke", config=small_config(layout=layout))


@pytest.fixture(scope="module")
def smoke_report(smoke_explorer):
    return smoke_explorer.stats


def test_smoke_meets_the_coverage_floor(smoke_report):
    """The acceptance bar: >= 200 distinct crash states, all held to
    their durability contracts after fsck repair."""
    r = smoke_report
    assert r.distinct_states >= 200
    assert not r.states_truncated
    assert r.violations == [] and r.ok
    # The enumeration actually exercised the interesting machinery:
    # volatile states, torn variants, and fsck repairs on crash images.
    assert r.raw_states > r.distinct_states
    assert r.fsck_repairs > 0
    assert r.durability_points > 0


def test_smoke_backs_only_the_frames_its_workloads_name(smoke_explorer):
    """425 machines — most of them a remount-and-fsck probe of one crash
    state, which names no page — used to zero 768 8 KB buffers each.
    Exact for the seed."""
    assert smoke_explorer.page_ledger == {"machines": 425, "buffers": 1165}
    assert 1165 * 10 <= 425 * 768


def test_smoke_report_is_json_ready(smoke_explorer, smoke_report):
    import json

    d = smoke_explorer.to_json()
    text = json.dumps(d, sort_keys=True)
    assert (json.loads(text)["stats"]["distinct_states"]
            == smoke_report.distinct_states)
    assert json.loads(text)["ok"] is True


def test_same_seed_same_digest():
    """Determinism: the full exploration (state hashes + verdicts) is a
    pure function of (preset, seed)."""
    a = explore("relocate", seed=7)
    b = explore("relocate", seed=7)
    assert a.digest == b.digest
    assert a.stats == b.stats


def test_different_seed_different_payloads():
    a = explore("relocate", seed=0)
    b = explore("relocate", seed=1)
    # Payloads differ, so the crash-state images (and their digest) do too.
    assert a.digest != b.digest


def test_relocation_bug_stays_fixed():
    """Pinning test for the real bug this engine surfaced.

    Growing a fragment-tail relocates the run: the allocator frees the old
    fragments while the on-disk inode still points at them and the
    relocated copy sits in the volatile write cache.  If another file
    reuses the freed fragments and flushes, a crash leaves the durable
    inode pointing at foreign bytes — promised (fsynced) data replaced by
    another file's content.  The fix makes the relocated run and the new
    inode pointers durable (write + FLUSH + FUA inode + FLUSH) before the
    old fragments can be handed out again.
    """
    explorer = CrashpointExplorer(PRESETS["relocate"], seed=0, sanitize=True)
    report = explorer.run()
    # The workload really took the relocation path (else this test guards
    # nothing) ...
    assert explorer.recorded is not None
    assert explorer.recorded.mount.stats["relocation_barriers"] > 0
    # ... and with the barriers in place no crash state can lose promised
    # bytes to fragment reuse.
    assert report.violations == [] and report.ok
    assert report.distinct_states > 0


def test_ordered_metadata_preset_holds():
    """B_ORDER metadata mode: barriers (not FUA) order the metadata; the
    contract folding treats namespace ops as uncertain until a flush."""
    report = explore("ordered", seed=0).stats
    assert report.violations == [] and report.ok
    assert report.distinct_states > 0
