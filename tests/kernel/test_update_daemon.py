"""Tests for the update daemon and the lazy-writeback comparison mode."""

from repro.disk import DiskGeometry
from repro.kernel import Proc, System, SystemConfig
from repro.kernel.update import UpdateDaemon
from repro.ufs import fsck
from repro.units import KB


def build(lazy=False):
    cfg = SystemConfig.config_a().with_(
        geometry=DiskGeometry.uniform(cylinders=200, heads=4,
                                      sectors_per_track=32))
    if lazy:
        cfg = cfg.with_(tuning=cfg.tuning.with_(lazy_writeback=True))
    return System.booted(cfg)


def test_update_daemon_flushes_periodically():
    system = build()
    proc = Proc(system)
    daemon = UpdateDaemon(system.engine, system.mount)

    def driver():
        fd = yield from proc.creat("/f")
        yield from proc.write(fd, bytes(32 * KB))
        yield from proc.close(fd)
        yield system.engine.timeout(2.5 * UpdateDaemon.PERIOD)

    system.run(driver())
    assert daemon.syncs >= 2
    vn = system.run(system.mount.namei("/f"))
    assert system.pagecache.dirty_pages(vn) == []
    assert fsck(system.store).clean


def test_lazy_writeback_accumulates_dirty_pages():
    system = build(lazy=True)
    proc = Proc(system)

    def work():
        fd = yield from proc.creat("/f")
        yield from proc.write(fd, bytes(256 * KB))
        yield from proc.close(fd)

    system.run(work())
    vn = system.run(system.mount.namei("/f"))
    # Nothing was pushed at cluster boundaries.
    assert len(system.pagecache.dirty_pages(vn)) == 32
    assert system.mount.stats["write_ios"] == 0


def test_lazy_writeback_fsync_still_works():
    system = build(lazy=True)
    proc = Proc(system)
    data = bytes(range(251)) * 300

    def work():
        fd = yield from proc.creat("/f")
        yield from proc.write(fd, data)
        yield from proc.fsync(fd)
        yield from proc.lseek(fd, 0)
        return (yield from proc.read(fd, len(data)))

    assert system.run(work()) == data
    system.sync()
    assert fsck(system.store).clean
