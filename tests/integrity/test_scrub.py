"""Scrubber and scrub-daemon tests: detection, the repair ladder, pacing."""

import random

import pytest

from repro.errors import ChecksumError, InvalidArgumentError
from repro.faults import corrupt_frag
from repro.integrity import Scrubber
from repro.kernel import Proc, System

from tests.integrity.conftest import checksum_config

KB = 1024


def _write_file(system, path, payload, sync=True):
    proc = Proc(system)

    def gen():
        fd = yield from proc.creat(path)
        yield from proc.write(fd, payload)
        yield from proc.fsync(fd)
        yield from proc.close(fd)

    system.run(gen())
    if sync:
        system.sync()
    return proc


def _file_frag(system, path, lbn=0, off=0):
    """The physical fragment of <path>'s block ``lbn`` (via a live proc)."""
    proc = Proc(system)

    def gen():
        fd = yield from proc.open(path)
        direct = list(proc._files[fd].vnode.inode.direct)
        yield from proc.close(fd)
        return direct

    direct = system.run(gen())
    return direct[lbn] + off


def test_scrubber_requires_a_region():
    plain = System.booted(checksum_config(checksums=False))
    with pytest.raises(InvalidArgumentError):
        Scrubber(plain)


def test_clean_fs_scrubs_clean(system):
    scrubber = Scrubber(system)
    report = system.run(scrubber.scrub_now())
    assert report.passes == 1
    assert report.frags_scanned == len(system.disk.integrity.stamped_frags())
    assert report.detected == 0
    assert report.repaired == 0
    assert report.unrepairable == 0


def test_metadata_repairs_from_replica(system):
    system.sync()
    region = system.disk.integrity
    frag = region.sb.cg_header_frag(1)
    corrupt_frag(system.store, region, frag, "bitrot", random.Random(1))

    scrubber = Scrubber(system)
    report = system.run(scrubber.scrub_now())
    assert report.detected == 1
    assert report.repaired_from_replica == 1
    fs = region.frag_sectors
    data = system.store.read(frag * fs, fs)
    assert region.verify_range(frag * fs, data) == []


def test_dirty_page_repairs_from_cache_without_clobbering(system):
    """Satellite: an unrepairable-on-disk fragment whose block is dirty in
    the page cache must be served and rewritten from the cache — and the
    cached page itself must never be touched."""
    v1 = b"\x11" * (8 * KB)
    v2 = b"\x22" * (8 * KB)
    proc = _write_file(system, "/f", v1)  # durable + stamped as v1

    def overwrite():
        fd = yield from proc.open("/f")
        yield from proc.write(fd, v2)  # dirty page, NOT synced
        yield from proc.close(fd)
        return proc._files

    system.run(overwrite())
    mount = system.mount
    vn = next(v for v in mount._vnodes.values() if v.inode.is_reg)
    page = mount.pagecache.lookup(vn, 0)
    assert page is not None and page.dirty

    region = system.disk.integrity
    frag = vn.inode.direct[0]  # v1 on disk; corrupt it
    corrupt_frag(system.store, region, frag, "zero", random.Random(2))

    scrubber = Scrubber(system)
    report = system.run(scrubber.scrub_now())
    assert report.detected == 1
    assert report.repaired_from_cache == 1
    assert report.unrepairable == 0
    # The page was the source, not the target: still dirty, still v2.
    assert page.dirty
    assert bytes(page.data[:8 * KB]) == v2
    # The disk now holds the cache's (newer) bytes, correctly stamped.
    fs = region.frag_sectors
    data = system.store.read(frag * fs, fs)
    assert data == v2[:region.fsize]
    assert region.verify_range(frag * fs, data) == []
    system.sync()
    system.sanitizer.checkpoint("test_end", idle=True, deep=True)


def test_uncached_corruption_is_unrepairable_then_rehabilitated(system):
    payload = bytes((j * 3) % 251 for j in range(16 * KB))
    _write_file(system, "/f", payload)
    survivor = System.remounted(system.store, system.config)
    region = survivor.disk.integrity
    frag = _file_frag(survivor, "/f", lbn=1, off=2)
    corrupt_frag(survivor.store, region, frag, "bitrot", random.Random(3))

    scrubber = Scrubber(survivor)
    report = survivor.run(scrubber.scrub_now())
    assert report.detected == 1
    assert report.unrepairable == 1
    assert region.record(frag).bad

    # A second pass skips the known-bad fragment: nothing new.
    second = Scrubber(survivor)
    report2 = survivor.run(second.scrub_now())
    assert report2.detected == 0
    assert second.stats["skipped_known_bad"] >= 1

    # Readers meanwhile get partial-read-then-EIO semantics: a whole-file
    # read returns the bytes before the bad block; touching the bad block
    # directly raises.
    proc = Proc(survivor)
    bsize = region.sb.bsize

    def read_all():
        fd = yield from proc.open("/f")
        data = yield from proc.read(fd, len(payload))
        yield from proc.close(fd)
        return data

    got = survivor.run(read_all())
    assert got == payload[:bsize]  # stopped short at the bad block

    def read_bad_block():
        fd = yield from proc.open("/f")
        yield from proc.lseek(fd, bsize, 0)
        yield from proc.read(fd, bsize)

    with pytest.raises(ChecksumError):
        survivor.run(read_bad_block())
    assert proc.errno == "EIO"

    # ... until a full rewrite rehabilitates the fragment.
    rehab = Proc(survivor)

    def rewrite():
        fd = yield from rehab.open("/f")
        yield from rehab.write(fd, payload)
        yield from rehab.fsync(fd)
        yield from rehab.close(fd)

    survivor.run(rewrite())
    assert not region.record(frag).bad
    third = Scrubber(survivor)
    report3 = survivor.run(third.scrub_now())
    assert report3.detected == 0
    survivor.sync()
    survivor.sanitizer.checkpoint("test_end", idle=True, deep=True)


def test_scrub_issues_real_requests(system):
    scrubber = Scrubber(system)
    before = system.requests.stats["scrub_started"]
    system.run(scrubber.scrub_now())
    assert system.requests.stats["scrub_started"] > before
    assert system.requests.stats["completed"] >= system.requests.stats["scrub_started"]
    assert not system.requests.open  # nothing leaked


def test_daemon_paces_and_checkpoints(system):
    daemon = system.start_scrub(interval=0.05)

    def idle_for(seconds):
        yield system.engine.timeout(seconds)

    system.run(idle_for(5.0))
    assert daemon.stats["ticks"] > 0
    assert daemon.report.passes >= 1
    assert daemon.report.detected == 0

    # Foreground pressure makes the daemon skip its tick.  The requests
    # are completed before idle so the sanitizer's span-balance check
    # stays happy.
    def busy_spell():
        reqs = [system.requests.start("fg") for _ in range(3)]
        yield system.engine.timeout(1.0)
        for r in reqs:
            r.complete()

    system.run(busy_spell())
    assert daemon.stats["ticks_throttled"] > 0

    daemon.stop()
    ticks = daemon.stats["ticks"]
    system.run(idle_for(1.0))
    assert daemon.stats["ticks"] == ticks  # stopped daemons stay stopped


def test_daemon_does_not_keep_engine_alive(system):
    system.start_scrub(interval=0.5)
    t0 = system.now

    def quick():
        yield system.engine.timeout(0.01)

    system.run(quick())
    # run() returned promptly: the daemon's pending tick did not hold it.
    assert system.now - t0 < 0.5
