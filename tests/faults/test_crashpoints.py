"""The crash-point exploration engine: enumeration, verification,
determinism, and the pinning test for the relocation durability bug.
"""

import pytest

from repro.faults import CrashpointExplorer, PRESETS
from repro.faults.harness import small_config
from repro.ufs import io as ufs_io
from repro.ufs.vnode import UfsVnode
from repro.nfs.server import RpcResult
from repro.vfs.vnode import PutFlags, RW


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
    """The journal is one drive's; a volume used to die in the
    recorder's self-check ("journal/data-plane incoherence") instead."""
    with pytest.raises(ValueError, match=f"layout {layout}.*one drive"):
        CrashpointExplorer("smoke", config=small_config(layout=layout))


@pytest.fixture(scope="module")
def smoke_report(smoke_explorer):
    return smoke_explorer.stats


def test_smoke_meets_the_coverage_floor(smoke_explorer, smoke_report,
                                        invariant_cells):
    """The acceptance bar: >= 200 distinct crash states, all held to
    their durability contracts after fsck repair."""
    r = smoke_report
    assert r.distinct_states >= 200
    assert not r.states_truncated
    assert set(invariant_cells(smoke_explorer).values()) == {0}
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
    """What ``crashpoints --json`` carries survives a JSON round trip."""
    import json

    from repro.bench.experiments import sweep_cells

    cells = json.loads(json.dumps(sweep_cells(smoke_explorer)))
    assert cells["distinct states"] == smoke_report.distinct_states
    assert cells["digest"] == smoke_explorer.digest
    assert json.loads(json.dumps(smoke_explorer.records)) == []


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


def test_relocation_bug_stays_fixed(invariant_cells):
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
    assert set(invariant_cells(explorer).values()) == {0}
    assert report.distinct_states > 0


def test_writethrough_preset_holds_on_the_papers_drive(writethrough_explorer,
                                                       invariant_cells):
    """No cache: every media write is one ``fua`` journal event, so each
    event is one crash point (no flush markers to skip), each with its
    torn variants; every distinct state keeps every fsync's promise."""
    writethrough = writethrough_explorer
    r = writethrough.stats
    assert writethrough.recorded.write_cache is None
    assert {ev.kind for ev in writethrough.recorded.disk.journal} == {"fua"}
    assert set(invariant_cells(writethrough).values()) == {0}
    assert not r.states_truncated
    assert r.crash_points == r.journal_events + 1
    assert r.distinct_states >= 70
    assert r.raw_states > r.distinct_states
    assert r.fsck_repairs > 0 and r.durability_points == 5


def _fsync_async_inode(self, req=None):
    if self.inode.size > 0:
        yield from ufs_io.ufs_putpage(self, 0, self.inode.size, PutFlags(),
                                      req=req)
        yield from self.mount.flush_disk(req=req)
    yield from self.mount.write_inode(self.inode, sync=False)
    yield from self.mount.flush_disk(req=req)


def _fsync_without_putpage(self, req=None):
    yield from self.mount.write_inode(self.inode, sync=True)
    yield from self.mount.flush_disk(req=req)


@pytest.mark.parametrize("mutant", [_fsync_async_inode,
                                    _fsync_without_putpage],
                         ids=["async-inode", "no-putpage"])
def test_writethrough_preset_catches_broken_fsyncs(monkeypatch, mutant,
                                                   invariant_cells):
    """An fsync that leaves the inode delayed, or never pushes the data
    pages, acknowledges bytes the write-through drive does not hold."""
    monkeypatch.setattr(UfsVnode, "fsync", mutant)
    explorer = CrashpointExplorer("writethrough", seed=0)
    explorer.run()
    assert invariant_cells(explorer)["violations"] > 0
    assert "durable_data_lost" in {v["category"] for v in explorer.records}


def test_nfs_meets_the_coverage_floor(nfs_explorer, invariant_cells):
    """The server's drive under a client's fsyncs (biod WRITEs plus a
    COMMIT): >= 100 distinct crash states, each keeping every promise the
    client was given."""
    r = nfs_explorer.stats
    assert r.distinct_states >= 100
    assert not r.states_truncated
    # The client's fsync returns reached the recorder on the server's drive.
    assert r.durability_points > 0
    assert r.fsck_repairs > 0
    assert set(invariant_cells(nfs_explorer).values()) == {0}


def _commit_without_fsync(self, handle):
    vn = yield from self.mount.iget(handle)
    yield from vn.putpage(0, vn.size, PutFlags())
    return RpcResult(None)


def _write_without_putpage(self, handle, offset, data):
    vn = yield from self.mount.iget(handle)
    return RpcResult((yield from vn.rdwr(RW.WRITE, offset, data)))


def test_ordered_metadata_preset_holds(invariant_cells):
    """B_ORDER metadata mode: barriers (not FUA) order the metadata; the
    contract folding treats namespace ops as uncertain until a flush."""
    explorer = explore("ordered", seed=0)
    assert set(invariant_cells(explorer).values()) == {0}
    assert explorer.stats.distinct_states > 0
