"""The crash-point exploration engine: enumeration, verification,
determinism, volumes, and the pinning tests for the bugs it found.
"""

import dataclasses
from collections import Counter

import pytest

from repro.disk.disk import JournalEvent
from repro.disk.volume import MirrorVolume, MultiVolume
from repro.faults import CrashpointExplorer, PRESETS
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
        CrashpointExplorer(dataclasses.replace(PRESETS["smoke"], window=0))


def test_explorer_rejects_a_negative_torn_limit():
    with pytest.raises(ValueError, match="torn_limit"):
        CrashpointExplorer(dataclasses.replace(PRESETS["smoke"],
                                               torn_limit=-1))


def test_torn_limit_zero_tears_nothing():
    """``torn_limit=0`` used to tear one entry anyway — the helper took a
    candidate before it tested the limit — so ``append`` explored exactly
    the 822 raw states of ``torn_limit=1``."""
    pending = [JournalEvent("write", seq, 8 * seq, 4, bytes(2048))
               for seq in range(3)]
    append = PRESETS["append"]
    zero = CrashpointExplorer(dataclasses.replace(append, torn_limit=0),
                              sanitize=False)
    one = CrashpointExplorer(dataclasses.replace(append, torn_limit=1),
                             sanitize=False)
    assert zero._torn_candidates(pending, []) == []
    assert one._torn_candidates(pending, []) == pending[:1]
    assert zero.run().raw_states < one.run().raw_states


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


@pytest.mark.parametrize("mutant, kind", [(_fsync_async_inode, "short"),
                                          (_fsync_without_putpage,
                                           "wrong_bytes")],
                         ids=["async-inode", "no-putpage"])
def test_writethrough_preset_catches_broken_fsyncs(monkeypatch, mutant, kind,
                                                   invariant_cells):
    """An fsync that leaves the inode delayed (the file comes back short),
    or never pushes the data pages (the sectors hold no version of it),
    acknowledges bytes the write-through drive does not hold."""
    monkeypatch.setattr(UfsVnode, "fsync", mutant)
    explorer = CrashpointExplorer("writethrough", seed=0)
    explorer.run()
    assert invariant_cells(explorer)["violations"] > 0
    assert {v["category"] for v in explorer.records} == {kind}


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


@pytest.mark.parametrize("preset", ["overwrite", "rename", "spanning"])
def test_presets_without_a_row_hold(preset, invariant_cells):
    """No experiment row runs these three, so they are held here: every
    sanitized crash state keeps every promise.  ``overwrite``'s last file
    is the only one written through O_SYNC under crash points; its
    write returns must promise its bytes."""
    explorer = CrashpointExplorer(preset, seed=0, sanitize=True)
    explorer.run()
    assert explorer.stats.distinct_states > 0
    assert set(invariant_cells(explorer).values()) == {0}
    if preset == "overwrite":
        p = explorer.preset
        promised = explorer.ledger.slots()["/ow1"].promised
        assert promised is not None and len(promised) == p.chunk * p.chunks


@pytest.mark.parametrize("preset", ["mirror", "stripe"])
def test_volume_presets_meet_the_coverage_floor(preset, request,
                                                invariant_cells):
    """Every member of the volume journals into one list, and >= 200
    distinct crash states of it keep every fsync's promise."""
    explorer = request.getfixturevalue(f"{preset}_explorer")
    r = explorer.stats
    assert r.distinct_states >= 200
    assert not r.states_truncated
    assert set(invariant_cells(explorer).values()) == {0}
    members = explorer.recorded.volume.members
    journal = members[0].disk.journal
    assert all(member.disk.journal is journal for member in members)
    assert {ev.member for ev in journal} == {0, 1}


def test_mirror_states_are_each_leg_and_each_leg_death(mirror_explorer):
    """A mirror's state is one leg's image (the others are resynced from
    it) or one leg's death: keyed by leg, never a product over legs."""
    kinds = Counter(line.partition(":")[0]
                    for line in mirror_explorer.digest_lines())
    assert kinds == {"leg0": 104, "leg1": 104, "kill0": 47, "kill1": 47}


def test_stripe_states_are_the_product_of_the_members(stripe_explorer):
    keys = [line.split()[0] for line in stripe_explorer.digest_lines()]
    assert all(len(key.split(",")) == 2 for key in keys)
    # Member 0's image alone does not name a state: both members vary.
    assert len({key.split(",")[0] for key in keys}) < len(keys)
    assert len({key.split(",")[1] for key in keys}) < len(keys)


def test_a_member_write_is_torn_only_once_its_drive_began_it():
    """Pinning test for the explorer's first volume find.  Tearing each
    member's next media write at every crash point tore writes no drive had
    started: on this stripe, the inode write that follows a FLUSH, beside
    the other member's still-volatile data, made four false violations."""
    explorer = CrashpointExplorer(
        dataclasses.replace(PRESETS["stripe"], chunks=4), sanitize=False)
    explorer.run()
    assert explorer.records == []


def _flush_acked_by_one_member(real):
    """A ``MultiVolume._join_hook`` that completes a FLUSH at the first
    member's ack, leaving the other members' drains unawaited."""
    def join_hook(self, state, member):
        hook = real(self, state, member)

        def first_ack(child):
            if state.parent.is_flush and state.pending > 1:
                state.pending = 1
            hook(child)
        return first_ack
    return join_hook


def _resync_skipped(self, index):
    return {"member": index, "identical": True, "verify_failures": []}
    yield  # pragma: no cover - a generator that does nothing


def test_a_flush_acked_by_one_member_fails_the_stripe_row_by_cell(
        monkeypatch, capsys):
    """An fsync then returns while the other member still holds the data
    in its volatile cache: crash states of that member lose it."""
    from repro.__main__ import main

    monkeypatch.setattr(MultiVolume, "_join_hook",
                        _flush_acked_by_one_member(MultiVolume._join_hook))
    assert main(["report", "--id", "crashpoints_stripe"]) == 1
    out = capsys.readouterr().out
    assert ("\nFAILED: crashpoints_stripe / violations: 3 outside exact "
            "(every distinct crash state repairs") in out


def test_a_mirror_that_skips_resync_fails_its_row_by_cell(monkeypatch,
                                                          capsys):
    """Without resync the legs disagree: reads alternate between a leg
    that kept the promise and one that did not, a dead leg comes back
    stale, and a stale leg still names the unlinked /f0 (26 of the 245)."""
    from repro.__main__ import main

    monkeypatch.setattr(MirrorVolume, "resync", _resync_skipped)
    assert main(["report", "--id", "crashpoints_mirror"]) == 1
    out = capsys.readouterr().out
    assert ("\nFAILED: crashpoints_mirror / violations: 245 outside exact "
            "(every distinct crash state repairs") in out
