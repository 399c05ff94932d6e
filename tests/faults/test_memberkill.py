"""Degraded mirrors: live member death, survivor service, resync.

A mirror's whole claim is that one dead member costs throughput, not
bytes.  These tests kill a member mid-workload (FaultPlan ``die_at``) and
hold the volume to that claim end to end: degraded reads and writes,
blame on the right member, zero acknowledged loss from the survivor
alone, and a resync that converges to byte-identical members.  (Every
crash state of a leg's death is the ``crashpoints --preset mirror`` row;
health blame and degraded writes need a live machine, so they live here.)
"""

import pytest

from repro.faults import FaultPlan
from repro.kernel.config import SystemConfig
from repro.kernel.syscalls import Proc
from repro.kernel.system import System
from repro.ufs.fsck import fsck
from repro.units import KB


def _mirror_system(die_at=0.05, victim=1, **cfg_kw):
    cfg = SystemConfig(layout="mirror:2", write_cache=True, checksums=True,
                       **cfg_kw)
    plans = [None, None]
    plans[victim] = FaultPlan(seed=1, die_at=die_at)
    return System.booted(cfg, fault_plan=plans)


def _put(proc, path, payload):
    fd = yield from proc.creat(path)
    yield from proc.write(fd, payload)
    yield from proc.fsync(fd)
    yield from proc.close(fd)


def _get(proc, path):
    fd = yield from proc.open(path)
    data = b""
    while True:
        chunk = yield from proc.read(fd, 32 * KB)
        if not chunk:
            break
        data += chunk
    yield from proc.close(fd)
    return data


def test_mirror_survives_member_death():
    system = _mirror_system(die_at=0.05, victim=1)
    proc = Proc(system, name="t")
    victim = system.volume.members[1]
    survivor = system.volume.members[0]
    files = {}
    for i in range(16):
        payload = bytes([i + 1]) * (24 * KB)
        system.run(_put(proc, f"/f{i}", payload), name=f"put{i}")
        files[f"/f{i}"] = payload
        if victim.failed and i >= 8:
            break
    assert victim.failed, "the scheduled death never fired"
    assert survivor.live
    # Blame landed on the victim; the survivor's health is clean.
    assert victim.health.failures > 0
    assert survivor.health.failures == 0
    # Every acknowledged file reads back through the degraded mirror.
    for path, payload in files.items():
        assert system.run(_get(proc, path), name="get") == payload
    # Degraded writes were counted (post-death fsyncs succeeded on one leg).
    assert system.volume.stats["degraded_writes"] > 0


def test_survivor_alone_is_a_complete_image():
    system = _mirror_system(die_at=0.04, victim=0)
    proc = Proc(system, name="t")
    files = {}
    for i in range(12):
        payload = bytes([0x40 + i]) * (16 * KB)
        system.run(_put(proc, f"/s{i}", payload), name=f"put{i}")
        files[f"/s{i}"] = payload
    assert system.volume.members[0].failed
    system.sync()
    clone = system.volume.members[1].store.clone()
    assert fsck(clone).clean
    solo = System.remounted(
        clone, system.config.with_(layout="single", write_cache=False))
    sproc = Proc(solo, name="s")
    for path, payload in files.items():
        assert solo.run(_get(sproc, path), name="get") == payload


def test_resync_converges_to_identical_members():
    system = _mirror_system(die_at=0.05, victim=1)
    proc = Proc(system, name="t")
    for i in range(12):
        system.run(_put(proc, f"/r{i}", bytes([i + 1]) * (16 * KB)),
                   name=f"put{i}")
    volume = system.volume
    assert volume.members[1].failed
    system.sync()
    report = system.run(volume.resync(1), name="resync")
    assert report["identical"]
    assert report["verify_failures"] == []
    assert report["sectors_copied"] > 0
    assert volume.members[0].store.digest() == \
           volume.members[1].store.digest()
    assert volume.members[1].live
    # The repaired machine passes fsck and a deep sanitizer checkpoint.
    assert fsck(system.store).clean
    system.sanitizer.checkpoint("test_post_resync", idle=True, deep=True)
    # And the resynced member serves reads again.
    assert system.run(_get(proc, "/r3"), name="get") == bytes([4]) * (16 * KB)


def test_resync_requires_a_live_source():
    from repro.errors import InvalidArgumentError

    system = System.booted(SystemConfig(layout="mirror:2"))
    for member in system.volume.members:
        member.failed = True
    with pytest.raises(InvalidArgumentError):
        system.run(system.volume.resync(0), name="resync")
