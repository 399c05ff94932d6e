"""Tests for the cross-layer invariant sanitizer ("simsan").

Each check gets two kinds of coverage: it passes on a healthy machine
running a real workload, and it *fires* when the corresponding invariant
is deliberately broken — a sanitizer that never fails is just overhead.
"""

import pytest

from repro.disk import DiskGeometry
from repro.kernel import Proc, System, SystemConfig
from repro.sim import Sanitizer, SanitizerError
from repro.sim.invariants import default_enabled, sanitizing
from repro.units import KB


def make_system(**overrides):
    cfg = SystemConfig.config_a().with_(
        geometry=DiskGeometry.uniform(cylinders=200, heads=4,
                                      sectors_per_track=32),
        **overrides)
    system = System.booted(cfg)
    system.sanitizer.enabled = True
    return system


def write_file(system, path="/f", nbytes=64 * KB):
    proc = Proc(system)

    def work():
        fd = yield from proc.creat(path)
        yield from proc.write(fd, bytes(range(256)) * (nbytes // 256))
        yield from proc.fsync(fd)
        yield from proc.close(fd)

    system.run(work())
    return proc


# -- the harness itself ------------------------------------------------------

def test_env_switch_controls_default(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    assert not default_enabled()
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert default_enabled()
    monkeypatch.setenv("REPRO_SANITIZE", "off")
    assert not default_enabled()
    with sanitizing(True):
        assert default_enabled()
        with sanitizing(False):
            assert not default_enabled()
        assert default_enabled()
    assert not default_enabled()


def test_a_scope_sanitizes_machines_from_birth(monkeypatch):
    """A machine built inside ``sanitizing(True)`` checks its boot and a
    survivor its mount, with the environment off: the switch is read
    where machines are born, not applied after the boot."""
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    cfg = SystemConfig.config_a().with_(
        geometry=DiskGeometry.uniform(cylinders=200, heads=4,
                                      sectors_per_track=32))
    with sanitizing(True):
        system = System.booted(cfg)
        assert system.sanitizer.checkpoints > 0
        system.sync()
        survivor = System.remounted(system.store, cfg)
        assert survivor.sanitizer.checkpoints > 0


def test_determinism_counts_the_same_checks_whatever_the_environment(
        monkeypatch):
    """The ``determinism`` row's "sanitizer checks per run" cell counts the
    boot's quiesce point too, so the environment cannot move it."""
    from repro.bench.experiments import _sanitized_run

    checks = []
    for env in ("0", "1"):
        monkeypatch.setenv("REPRO_SANITIZE", env)
        checks.append(_sanitized_run()[-1])
    assert checks[0] == checks[1]


def test_disabled_sanitizer_checks_nothing():
    system = make_system()
    system.sanitizer.enabled = False
    before = system.sanitizer.checks_run
    write_file(system)
    assert system.sanitizer.checks_run == before


def test_checkpoints_fire_at_quiesce_points():
    system = make_system()
    before = system.sanitizer.checkpoints
    write_file(system)  # fsync checkpoint + post-run idle checkpoints
    assert system.sanitizer.checkpoints > before
    assert system.sanitizer.checks_run > 0


def test_attach_every_runs_step_checkpoints():
    system = make_system()
    timer = system.sanitizer.attach_every(0.010)
    before = system.sanitizer.checkpoints
    write_file(system)  # ~0.18 simulated seconds
    assert system.sanitizer.checkpoints - before > 5
    assert timer.fires > 5
    timer.cancel()
    before = system.sanitizer.checkpoints
    write_file(system, path="/g")
    assert system.sanitizer.checkpoints - before == 2  # fsync + idle only


def test_healthy_workload_passes_deep_checkpoint():
    system = make_system()
    write_file(system)
    system.sync()
    system.sanitizer.checkpoint("test_deep", idle=True, deep=True)


def test_error_carries_check_name():
    err = SanitizerError("buf_balance", "boom")
    assert "[simsan:buf_balance]" in str(err)
    assert err.check == "buf_balance"
    assert err.span_tree is None


# -- check 1: engine liveness ------------------------------------------------

def test_liveness_check_catches_drifted_counter():
    system = make_system()
    system.engine._live += 1  # simulate a double-count bug
    with pytest.raises(SanitizerError, match="engine_liveness"):
        system.sanitizer.checkpoint("test", idle=False)
    system.engine._live -= 1
    system.sanitizer.checkpoint("test", idle=True)  # healthy again


def test_liveness_check_catches_nonzero_live_at_idle():
    system = make_system()
    # _live matches the heap (one pending entry) but "idle" was claimed.
    system.engine.schedule(1.0, lambda _: None)
    with pytest.raises(SanitizerError, match="idle with _live"):
        system.sanitizer.checkpoint("test", idle=True)


# -- check 2: buf balance ----------------------------------------------------

def test_buf_balance_catches_leaked_buf():
    from repro.disk import Buf, BufOp

    system = make_system()
    buf = Buf(system.engine, BufOp.READ, 8, 2, owner="leak-test")
    system.driver.outstanding[buf.id] = buf  # issued, never completed
    with pytest.raises(SanitizerError, match="never completed"):
        system.sanitizer.checkpoint("test", idle=True)


def test_buf_balance_catches_count_drift():
    system = make_system()
    system.driver.stats.incr("tracked_issued")  # issue with no completion
    with pytest.raises(SanitizerError, match="completions recorded"):
        system.sanitizer.checkpoint("test", idle=True)


def test_a_volume_checks_its_own_books_then_each_members():
    """On a stripe the volume's table is checked as ``driver``, then each
    member's driver under the member's own name."""
    from repro.disk import Buf, BufOp

    system = make_system(layout="stripe:2")
    member = system.volume.members[1]
    buf = Buf(system.engine, BufOp.READ, 8, 2, owner="leak-test")
    member.driver.outstanding[buf.id] = buf
    with pytest.raises(SanitizerError,
                       match="issued to sd1 never completed"):
        system.sanitizer.checkpoint("test", idle=True)
    del member.driver.outstanding[buf.id]
    system.volume.stats.incr("tracked_issued")
    with pytest.raises(SanitizerError,
                       match=r"at test: driver: \d+ bufs issued"):
        system.sanitizer.checkpoint("test", idle=True)


def test_buf_double_complete_is_reported():
    from repro.disk import Buf, BufOp
    from repro.sim import SimulationError

    system = make_system()
    buf = Buf(system.engine, BufOp.READ, 8, 2, owner="dup-test")
    buf.complete()
    with pytest.raises(SimulationError, match="completed twice"):
        buf.complete()


# -- check 3: throttle conservation ------------------------------------------

def test_throttle_check_catches_leaked_slot():
    system = make_system()
    proc = write_file(system)

    def leak():
        vn = yield from system.mount.namei("/f")
        vn.inode.throttle.take(4096)  # charged, never credited

    system.engine.run_process(leak())  # bypass System.run's checkpoint
    with pytest.raises(SanitizerError, match="never credited them back"):
        system.sanitizer.checkpoint("test", idle=True)
    assert proc  # keep the workload's proc alive for namei


def test_throttle_check_skips_disabled_throttles():
    # Config D (the old system) runs with write_limit=0: take/credit are
    # no-ops, so no conservation claim exists to check.
    cfg = SystemConfig.config_d().with_(
        geometry=DiskGeometry.uniform(cylinders=200, heads=4,
                                      sectors_per_track=32))
    system = System.booted(cfg)
    system.sanitizer.enabled = True
    write_file(system)
    system.sanitizer.checkpoint("test", idle=True)


# -- check 4: request/span balance -------------------------------------------

def test_span_check_catches_recorded_leak():
    system = make_system()
    system.requests.span_leaks.append((7, "write", ("throttle_wait",)))
    with pytest.raises(SanitizerError, match="finished with open span"):
        system.sanitizer.checkpoint("test", idle=False)


def test_span_check_catches_open_request_at_idle():
    system = make_system()
    req = system.requests.start("write")
    with pytest.raises(SanitizerError, match="still open at idle"):
        system.sanitizer.checkpoint("test", idle=True)
    req.complete()


def test_request_leaking_span_is_ledgered():
    system = make_system()
    system.tracer.enabled = True
    req = system.requests.start("write")
    req.begin("getpage")  # never ended
    req.complete()
    system.tracer.enabled = False
    assert system.requests.span_leaks
    rid, kind, names = system.requests.span_leaks[0]
    assert kind == "write" and "getpage" in names


# -- check 5: page coherency -------------------------------------------------

def test_page_coherency_catches_corrupted_clean_page():
    system = make_system()
    write_file(system)

    def corrupt():
        vn = yield from system.mount.namei("/f")
        page = system.pagecache.vnode_pages(vn)[0]
        # Memory no longer matches disk, and the page stays "clean".
        page.write(0, bytes([page.data[0] ^ 0xFF]))
        assert not page.dirty

    system.engine.run_process(corrupt())
    with pytest.raises(SanitizerError, match="differs from disk"):
        system.sanitizer.checkpoint("test", idle=True)


def test_dir_views_catch_a_record_changed_behind_the_views_back():
    """A view whose record lengths drift from its image still answers
    every lookup right, so only the full record compare sees it."""
    system = make_system()
    write_file(system)
    system.run(system.mount.namei("/f"))  # leaves the root's view behind
    system.sanitizer.checkpoint("test", idle=True)  # healthy
    view = next(meta.view for meta in system.mount.metacache.buffers()
                if meta.view is not None)
    offset, ino, reclen, name = view.records[-1]
    view.records[-1] = (offset, ino, reclen - 4, name)
    with pytest.raises(SanitizerError, match="dir_views"):
        system.sanitizer.checkpoint("test", idle=True)


# -- check 6: allocator ------------------------------------------------------

def test_allocator_catches_counter_drift():
    system = make_system()
    write_file(system)
    system.mount.cgs[0].nbfree += 1
    with pytest.raises(SanitizerError, match="bitmap shows"):
        system.sanitizer.checkpoint("test", idle=True)
    system.mount.cgs[0].nbfree -= 1


def test_allocator_catches_freed_but_claimed_fragment():
    system = make_system()
    write_file(system)

    def free_claimed():
        vn = yield from system.mount.namei("/f")
        ip = vn.inode
        sb = system.mount.sb
        addr = next(a for a in ip.direct if a)
        cgx = addr // sb.fpg
        cg = system.mount.cgs[cgx]
        rel = addr - sb.cgbase(cgx)
        for i in range(sb.frag):
            cg.set_frag(rel + i, free=True)
        # Keep the counters consistent with the bitmap so the *claims*
        # check (not the recount) is what fires.
        cg.nbfree += 1
        sb.cs_nbfree += 1

    system.engine.run_process(free_claimed())
    with pytest.raises(SanitizerError, match="marks it free"):
        system.sanitizer.checkpoint("test", idle=True)


def test_allocator_checks_a_slow_symlinks_block():
    """Only a fast symlink's pointer words are target bytes; a slow one's
    ``direct[0]`` is a real claim, and freeing it behind the link's back
    fires the check."""
    system = make_system()
    proc = Proc(system)
    system.run(proc.symlink("/" + "t" * 99, "/slow"))
    system.run(proc.symlink("/t", "/fast"))
    system.sanitizer.checkpoint("test", idle=True)  # both links healthy
    vn = system.run(system.mount.namei("/slow", follow=False))
    addr = vn.inode.direct[0]
    # free_frags keeps the counters with the bitmap, so the *claims* check
    # (not the recount) is what fires.
    system.mount.allocator.free_frags(None, addr, 1)
    with pytest.raises(SanitizerError,
                       match=f"claims fragment {addr} but"):
        system.sanitizer.checkpoint("test", idle=True)


def test_deep_allocator_runs_fsck():
    system = make_system()
    write_file(system)
    system.sync()
    before = system.sanitizer.checks_run
    system.sanitizer.checkpoint("test", idle=True, deep=True)
    assert system.sanitizer.checks_run > before


def test_nfs_client_throttles_via_its_mount():
    """An NFS client's throttles are found through ``system.mount``, the
    client's NfsMount: a write-behind slot taken and never credited on a
    ``build_world`` client raises at the next idle checkpoint."""
    from repro.nfs import build_world

    client, _server, _mount = build_world(
        server_config=SystemConfig.config_a().with_(
            geometry=DiskGeometry.uniform(cylinders=200, heads=4,
                                          sectors_per_track=32)))
    client.sanitizer.enabled = True
    proc = Proc(client)

    def work():
        fd = yield from proc.creat("/f")
        yield from proc.write(fd, bytes(16 * KB))
        yield from proc.fsync(fd)
        yield from proc.close(fd)

    client.run(work())  # drained at idle: fine
    vn = client.run(client.mount.namei("/f"))
    vn.throttle.take(4 * KB)  # a slot no completion will credit
    with pytest.raises(SanitizerError,
                       match=f"nfs handle {vn.handle} still has 4096"):
        client.sanitizer.checkpoint("test", idle=True)


def test_s5fs_and_nfs_machines_run_the_vfs_base_checks():
    """S5FS and the NFS client have no file-system checks of their own
    yet: they inherit the ``Vfs`` base's empty ones, no type test skips
    them, and a checkpoint on either still runs all eight checks."""
    from repro.nfs import build_world
    from repro.s5fs import S5FileSystem, s5_mkfs
    from repro.vfs.vnode import Vfs

    s5 = System(SystemConfig.config_a().with_(
        geometry=DiskGeometry.uniform(cylinders=60, heads=2,
                                      sectors_per_track=16)))
    s5_mkfs(s5.store)
    S5FileSystem(s5)
    client, _server, _mount = build_world(
        server_config=SystemConfig.config_a().with_(
            geometry=DiskGeometry.uniform(cylinders=200, heads=4,
                                          sectors_per_track=32)))
    for system in (s5, client):
        mount = type(system.mount)
        assert mount.check_page_coherency is Vfs.check_page_coherency
        assert mount.check_allocator is Vfs.check_allocator
        system.sanitizer.enabled = True
        write_file(system)
        before = system.sanitizer.checks_run
        system.sanitizer.checkpoint("test", idle=True, deep=True)
        assert system.sanitizer.checks_run - before == 8


def test_sanitizer_constructor_reads_env(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    system = make_system()  # re-enables explicitly
    assert system.sanitizer.enabled
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert Sanitizer(system).enabled
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    assert not Sanitizer(system).enabled
