"""Tests for ufs_getpage/ufs_putpage/ufs_rdwr: clustering behaviour,
read-ahead, write clustering, free-behind, throttling, holes."""

import pytest

from repro.units import KB
from repro.vfs import PutFlags

from .conftest import make_system


def write_file(system, proc, path, data, chunk=8 * KB, fsync=True):
    def work():
        fd = yield from proc.creat(path)
        for start in range(0, len(data), chunk):
            yield from proc.write(fd, data[start:start + chunk])
        if fsync:
            yield from proc.fsync(fd)
        yield from proc.close(fd)

    system.run(work())


def read_file(system, proc, path, chunk=8 * KB):
    def work():
        fd = yield from proc.open(path)
        parts = []
        while True:
            piece = yield from proc.read(fd, chunk)
            if not piece:
                break
            parts.append(piece)
        yield from proc.close(fd)
        return b"".join(parts)

    return system.run(work())


def patterned(nbytes, seed=1):
    return bytes((i * seed + i // 8192) % 251 for i in range(nbytes))


# -- data integrity -----------------------------------------------------------

def test_write_read_round_trip(system, proc):
    data = patterned(200 * KB)
    write_file(system, proc, "/f", data)
    assert read_file(system, proc, "/f") == data


def test_round_trip_survives_cache_eviction(system, proc):
    """Read back through real disk I/O: drop every cached page first."""
    data = patterned(120 * KB)
    write_file(system, proc, "/f", data)
    vn = system.run(system.mount.namei("/f"))
    for page in system.pagecache.vnode_pages(vn):
        system.pagecache.destroy(page)
    assert read_file(system, proc, "/f") == data
    assert system.mount.stats["read_ios"] > 0


def test_clustered_pages_share_the_blocks_the_disk_stores(system, proc):
    """A cluster crosses the disk as one buffer; after the write and after
    a read back, each page holds the disk's own object for its
    block, not a copy of it."""
    data = patterned(96 * KB)  # twelve blocks, all direct
    write_file(system, proc, "/f", data)
    assert system.mount.stats["write_ios"] < 12
    vn = system.run(system.mount.namei("/f"))
    sb = system.mount.sb

    def stored(page):
        addr = vn.inode.direct[page.offset // sb.bsize]
        return system.store.read(sb.fsb_to_sector(addr), sb.bsize // 512)

    pages = system.pagecache.vnode_pages(vn)
    assert len(pages) == 12
    assert all(page.data is stored(page) for page in pages)
    system.pagecache.vnode_drop_clean(vn)
    vn.inode.readahead.reset()
    assert read_file(system, proc, "/f") == data
    pages = system.pagecache.vnode_pages(vn)
    assert len(pages) == 12 and system.mount.stats["read_ios"] < 12
    assert all(page.data is stored(page) for page in pages)
    assert system.pagecache.private_buffers == 0


def test_old_system_round_trip(old_system):
    from repro.kernel import Proc

    proc = Proc(old_system)
    data = patterned(100 * KB)
    write_file(old_system, proc, "/f", data)
    assert read_file(old_system, proc, "/f") == data


def test_partial_and_unaligned_writes(system, proc):
    def work():
        fd = yield from proc.creat("/f")
        yield from proc.write(fd, b"A" * 100)
        yield from proc.pwrite(fd, b"B" * 50, 75)
        yield from proc.pwrite(fd, b"C" * 10, 8190)  # straddles page 0/1
        yield from proc.close(fd)

    system.run(work())
    data = read_file(system, proc, "/f")
    assert len(data) == 8200
    assert data[:75] == b"A" * 75
    assert data[75:125] == b"B" * 50
    assert data[8190:8200] == b"C" * 10
    assert data[125:8190] == bytes(8190 - 125)


def test_read_past_eof_is_short(system, proc):
    write_file(system, proc, "/f", b"hello")

    def work():
        fd = yield from proc.open("/f")
        data = yield from proc.read(fd, 100)
        more = yield from proc.read(fd, 100)
        return data, more

    data, more = system.run(work())
    assert data == b"hello" and more == b""


def test_holes_read_as_zeros(system, proc):
    def work():
        fd = yield from proc.creat("/sparse")
        yield from proc.pwrite(fd, b"end", 100 * KB)
        yield from proc.close(fd)

    system.run(work())
    data = read_file(system, proc, "/sparse")
    assert len(data) == 100 * KB + 3
    assert data[:100 * KB] == bytes(100 * KB)
    assert data[-3:] == b"end"
    # Holes consume no blocks beyond the tail.
    vn = system.run(system.mount.namei("/sparse"))
    assert vn.inode.blocks <= 2 * system.mount.sb.frag


def test_small_file_uses_fragments(system, proc):
    write_file(system, proc, "/tiny", b"x" * 3000)
    vn = system.run(system.mount.namei("/tiny"))
    # 3000 bytes -> 3 fragments, not a full 8-frag block.
    assert vn.inode.blocks == 3
    assert read_file(system, proc, "/tiny") == b"x" * 3000


# -- clustering behaviour ----------------------------------------------------------

def test_sequential_write_clusters_into_few_ios(system, proc):
    """120 KB cluster: a 480 KB file should go out in ~4 write I/Os."""
    data = patterned(480 * KB)
    write_file(system, proc, "/f", data)
    ios = system.mount.stats["write_ios"]
    assert ios <= 6, f"expected ~4 clustered writes, got {ios}"


def test_old_system_writes_one_io_per_block(old_system):
    from repro.kernel import Proc

    proc = Proc(old_system)
    data = patterned(128 * KB)  # 16 blocks
    write_file(old_system, proc, "/f", data)
    assert old_system.mount.stats["write_ios"] >= 16


def test_sequential_read_clusters(system, proc):
    data = patterned(480 * KB)
    write_file(system, proc, "/f", data)
    vn = system.run(system.mount.namei("/f"))
    for page in system.pagecache.vnode_pages(vn):
        system.pagecache.destroy(page)
    system.mount.stats.reset()
    read_file(system, proc, "/f")
    ios = system.mount.stats["read_ios"]
    # 480 KB in 120 KB clusters: 4 sync+RA I/Os, allow some slack.
    assert ios <= 8, f"expected clustered reads, got {ios} I/Os"


def test_old_system_reads_one_io_per_block(old_system):
    from repro.kernel import Proc

    proc = Proc(old_system)
    data = patterned(128 * KB)
    write_file(old_system, proc, "/f", data)
    vn = old_system.run(old_system.mount.namei("/f"))
    for page in old_system.pagecache.vnode_pages(vn):
        old_system.pagecache.destroy(page)
    old_system.mount.stats.reset()
    read_file(old_system, proc, "/f")
    assert old_system.mount.stats["read_ios"] >= 15


def test_readahead_happens_on_sequential_reads(system, proc):
    data = patterned(480 * KB)
    write_file(system, proc, "/f", data)
    vn = system.run(system.mount.namei("/f"))
    for page in system.pagecache.vnode_pages(vn):
        system.pagecache.destroy(page)
    system.mount.stats.reset()
    read_file(system, proc, "/f")
    assert system.mount.stats["readaheads"] >= 2


def test_random_reads_do_not_readahead(system, proc):
    data = patterned(480 * KB)
    write_file(system, proc, "/f", data)
    vn = system.run(system.mount.namei("/f"))
    for page in system.pagecache.vnode_pages(vn):
        system.pagecache.destroy(page)
    system.mount.stats.reset()

    def work():
        fd = yield from proc.open("/f")
        # Stride backwards: never sequential.
        for off in range(52, -1, -4):
            yield from proc.pread(fd, 8 * KB, off * 8 * KB)
        yield from proc.close(fd)

    system.run(work())
    assert system.mount.stats["readaheads"] == 0


def test_random_writes_flush_previous_range(system, proc):
    """Random writes break the delayed-write pattern (restart path)."""
    def work():
        fd = yield from proc.creat("/f")
        yield from proc.pwrite(fd, bytes(8 * KB), 0)
        yield from proc.pwrite(fd, bytes(8 * KB), 8 * KB)
        yield from proc.pwrite(fd, bytes(8 * KB), 400 * KB)  # jump
        yield from proc.pwrite(fd, bytes(8 * KB), 16 * KB)  # jump back
        yield from proc.fsync(fd)
        yield from proc.close(fd)

    system.run(work())
    assert system.mount.stats["write_ios"] >= 3


def test_fsync_flushes_everything(system, proc):
    data = patterned(100 * KB)
    write_file(system, proc, "/f", data, fsync=True)
    vn = system.run(system.mount.namei("/f"))
    assert system.pagecache.dirty_pages(vn) == []
    # And the data really is on the disk platters.
    stored = system.store.read(0, system.store.total_sectors // 2)
    del stored  # (read above just proves no crash; spot check below)
    from repro.ufs import bmap

    addr, _ = system.run(bmap.bmap_read(system.mount, vn.inode, 0, 1))
    on_disk = system.store.read(system.mount.sb.fsb_to_sector(addr), 16)
    assert on_disk == data[:8 * KB]


def test_write_throttle_limits_queue(system, proc):
    """With a 240 KB limit, a 1 MB burst write sleeps on the throttle."""
    data = patterned(1024 * KB)
    write_file(system, proc, "/f", data, fsync=False)
    vn = system.run(system.mount.namei("/f"))
    assert vn.inode.throttle.sleeps > 0


def test_no_throttle_when_unlimited(old_system):
    from repro.kernel import Proc

    proc = Proc(old_system)
    data = patterned(512 * KB)
    write_file(old_system, proc, "/f", data, fsync=False)
    vn = old_system.run(old_system.mount.namei("/f"))
    assert vn.inode.throttle.sleeps == 0
    assert not vn.inode.throttle.enabled


def test_putpage_delay_requires_page_length(system, proc):
    from repro.errors import InvalidArgumentError

    write_file(system, proc, "/f", b"x" * 100)
    vn = system.run(system.mount.namei("/f"))
    with pytest.raises(InvalidArgumentError):
        system.run(vn.putpage(0, 16 * KB, PutFlags(delay=True)))


def test_getpage_unaligned_offset_rejected(system, proc):
    from repro.errors import InvalidArgumentError

    write_file(system, proc, "/f", b"x" * 100)
    vn = system.run(system.mount.namei("/f"))
    with pytest.raises(InvalidArgumentError):
        system.run(vn.getpage(100))


# -- free-behind --------------------------------------------------------------------

def test_free_behind_frees_pages_under_pressure(proc_b=None):
    """Config B (free-behind on): a large sequential read leaves few of its
    own pages cached; config C (off) fills memory with them."""
    from repro.kernel import Proc

    results = {}
    for name in ("B", "C"):
        system = make_system(name)
        proc = Proc(system)
        # Bigger than the ~6 MB page pool, so the reader runs under real
        # memory pressure deep into the file.
        data = patterned(7 * 1024 * KB)
        write_file(system, proc, "/f", data)
        read_file(system, proc, "/f")
        results[name] = (system.mount.stats["freebehind"],
                         system.pageout.stats["wakeups"])
    freebehind_b, _ = results["B"]
    freebehind_c, wakeups_c = results["C"]
    assert freebehind_b > 0
    assert freebehind_c == 0
    # Without free-behind the pageout daemon has to do the work instead.
    assert wakeups_c > 0
