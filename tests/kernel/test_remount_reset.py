"""``System.remounted`` must boot a genuinely fresh machine.

The crash campaigns and the crash-point explorer remount hundreds of
images per run; any state bleeding from the dead machine into the
survivor (open requests, sanitizer accounting, write-cache contents,
journal hooks) would turn one crash's debris into the next state's
false verdict.
"""

from repro.faults import small_config
from repro.kernel import SystemConfig
from repro.kernel.syscalls import Proc
from repro.kernel.system import System
from repro.ufs import fsck

from tests.integrity.conftest import checksum_config


def crashedlike_system():
    """A machine with plenty of used state: requests served, sanitizer
    checkpoints taken, a journalling write cache with entries pending."""
    config = small_config(write_cache=True, write_cache_bytes=64 * 1024)
    system = System.booted(config)
    system.sanitizer.enabled = True
    system.tracer.enabled = True
    assert system.write_cache is not None
    system.disk.journal = []

    def workload(proc):
        fd = yield from proc.creat("/f")
        yield from proc.write(fd, b"x" * 8192)
        yield from proc.fsync(fd)
        yield from proc.close(fd)

    proc = Proc(system)
    system.run(workload(proc), name="dirty-up")
    system.sync()
    return system, config


def test_remounted_machine_shares_nothing_but_the_store():
    crashed, config = crashedlike_system()
    assert crashed.requests.stats["started"] > 0
    assert crashed.sanitizer.checkpoints > 0
    assert crashed.disk.journal  # the recording hook was active

    survivor = System.remounted(crashed.store, config)

    assert survivor.store is crashed.store
    # Fresh identity everywhere else: engine, registry, sanitizer, cache.
    assert survivor.engine is not crashed.engine
    assert survivor.requests is not crashed.requests
    assert survivor.sanitizer is not crashed.sanitizer
    assert survivor.sanitizer.system is survivor
    assert survivor.write_cache is not crashed.write_cache


def test_remounted_machine_shares_no_page_buffer_and_backs_none():
    """A power cut loses memory: the survivor's frames start unmade, and
    a remount-and-fsck probe never makes one."""
    crashed, config = crashedlike_system()
    assert crashed.pagecache.frames_backed > 0
    survivor = System.remounted(crashed.store, config)
    assert fsck(survivor.store).clean
    assert survivor.pagecache.frames_backed == 0

    proc = Proc(survivor)

    def read(proc):
        fd = yield from proc.open("/f")
        yield from proc.read(fd, 8192)
        yield from proc.close(fd)

    survivor.run(read(proc), name="read-back")
    mine = {id(p.data): p for p in survivor.pagecache.frames if p is not None}
    theirs = {id(p.data): p for p in crashed.pagecache.frames
              if p is not None}
    assert mine
    # No private buffer is shared; whatever is shared is immutable bytes
    # equal to the block on the survivor's disk.
    sb = survivor.mount.sb
    for key in mine.keys() & theirs.keys():
        page = mine[key]
        assert type(page.data) is bytes and type(theirs[key].data) is bytes
        addr = page.vnode.inode.direct[page.offset // sb.bsize]
        block = survivor.store.read(sb.fsb_to_sector(addr), sb.bsize // 512)
        assert page.data == block


def test_a_booted_machine_backs_no_frame():
    """mkfs is offline and mount reads through the buffer cache, not the
    page cache: exactly zero of config A's 768 frames hold a buffer."""
    system = System.booted(SystemConfig.config_a())
    assert system.pagecache.total_pages == 768
    assert system.pagecache.frames_backed == 0


def test_a_machine_is_born_holding_no_page():
    """Frames are made on first allocation: a new machine has made no
    ``Page``, and one 8 KB write makes exactly the frames it allocates."""
    config = SystemConfig.config_a()
    assert System(config).pagecache.frames == [None] * 768
    system = System.booted(config)
    cache = system.pagecache
    assert cache.frames == [None] * 768
    proc = Proc(system)

    def write(proc):
        fd = yield from proc.creat("/f")
        yield from proc.write(fd, bytes(8192))
        yield from proc.close(fd)

    system.run(write(proc))
    made = [page for page in cache.frames if page is not None]
    assert made and len(made) == cache.stats["allocations"]
    assert cache.frames_backed == len(made)
    assert all(cache.frames[page.frame] is page for page in made)


def test_remounted_registry_and_sanitizer_start_clean():
    crashed, config = crashedlike_system()
    served_by_crashed = crashed.requests.stats["started"]

    survivor = System.remounted(crashed.store, config)
    # No open requests or span leaks inherited; only the mount's own I/O
    # has been counted.
    assert survivor.requests.open == {}
    assert survivor.requests.span_leaks == []
    assert survivor.requests.stats["started"] < served_by_crashed
    # The write cache starts empty and un-journalled: the dead machine's
    # volatile entries and recording hook must not resurface.
    assert survivor.write_cache.entries == []
    assert survivor.write_cache.bytes == 0
    assert survivor.disk.journal is None
    # A full-depth checkpoint on the fresh machine passes: the survivor is
    # quiesced and its state is coherent from the first instant.
    survivor.sanitizer.enabled = True
    before = survivor.sanitizer.checkpoints
    survivor.sanitizer.checkpoint("remount_reset_test", idle=True, deep=True)
    assert survivor.sanitizer.checkpoints == before + 1


def test_remount_neutralizes_the_old_systems_scrub_daemon():
    """A ScrubDaemon started on the old machine must stand down once a
    new System owns the stores: its repair writes would otherwise race
    the survivor's I/O through a stale driver over the same bytes."""
    config = checksum_config()
    old = System.booted(config)
    proc = Proc(old)

    def workload(proc):
        fd = yield from proc.creat("/f")
        yield from proc.write(fd, b"s" * 8192)
        yield from proc.fsync(fd)
        yield from proc.close(fd)

    old.run(workload(proc), name="seed-data")
    old.sync()
    daemon = old.start_scrub(interval=0.05)
    assert daemon in old.daemons
    assert not daemon.stale

    def tick_past(interval):
        yield old.engine.timeout(interval)

    # The daemon scrubs happily while it still owns the machine.
    old.run(tick_past(daemon.interval * 3), name="let-scrub-run")
    assert daemon.running
    assert daemon.stats["ticks"] > 0

    survivor = System.remounted(old.store, config)
    assert daemon.stale  # the store's attach epoch moved

    # Next tick on the OLD engine: the daemon stands down instead of
    # scrubbing a machine it no longer owns.
    ticks_before = daemon.stats["ticks"]
    old.run(tick_past(daemon.interval * 3), name="stale-tick")
    assert not daemon.running
    assert daemon.stats["stale_system_stops"] == 1
    assert daemon.stats["ticks"] == ticks_before
    # The survivor is untouched and can start its own daemon.
    fresh = survivor.start_scrub(interval=0.05)
    assert not fresh.stale
    assert "scrub" in survivor.metrics


def test_shutdown_daemons_stops_scrubbing():
    system = System.booted(checksum_config())
    daemon = system.start_scrub(interval=0.05)
    assert daemon.running
    system.shutdown_daemons()
    assert not daemon.running


def test_remounted_sees_the_crashed_machines_durable_bytes():
    crashed, config = crashedlike_system()
    survivor = System.remounted(crashed.store, config)
    proc = Proc(survivor)

    def read(proc):
        fd = yield from proc.open("/f")
        data = yield from proc.read(fd, 8192)
        yield from proc.close(fd)
        return data

    assert survivor.run(read(proc), name="verify") == b"x" * 8192
