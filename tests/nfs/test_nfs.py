"""Tests for the NFS client/server/network stack."""

import random

import pytest

from repro.disk import DiskGeometry
from repro.kernel import Proc, SystemConfig
from repro.nfs import Network, build_world
from repro.nfs.net import ETHERNET_10MBIT
from repro.sim import Engine
from repro.units import KB, MB, MS
from repro.vfs import RW


def small_world(**kwargs):
    server_cfg = SystemConfig.config_a().with_(
        geometry=DiskGeometry.uniform(cylinders=200, heads=4,
                                      sectors_per_track=32))
    return build_world(server_config=server_cfg, **kwargs)


# -- network -------------------------------------------------------------------

def test_network_transfer_time():
    eng = Engine()
    net = Network(eng, bandwidth=1_000_000, latency=2 * MS)

    def proc():
        yield from net.send_to_server(10_000)
        return eng.now

    # 10 KB at 1 MB/s = 10 ms, plus 2 ms latency.
    assert eng.run_process(proc()) == pytest.approx(0.012)
    assert net.stats["messages"] == 1


def test_network_serializes_each_direction():
    eng = Engine()
    net = Network(eng, bandwidth=1_000_000, latency=0)
    done = []

    def sender(tag):
        yield from net.send_to_server(500_000)  # 0.5 s each
        done.append((tag, eng.now))

    eng.process(sender("a"))
    eng.process(sender("b"))
    eng.run()
    assert done == [("a", 0.5), ("b", 1.0)]


def test_network_directions_are_independent():
    eng = Engine()
    net = Network(eng, bandwidth=1_000_000, latency=0)
    done = []

    def up():
        yield from net.send_to_server(500_000)
        done.append(("up", eng.now))

    def down():
        yield from net.send_to_client(500_000)
        done.append(("down", eng.now))

    eng.process(up())
    eng.process(down())
    eng.run()
    assert sorted(t for _, t in done) == [0.5, 0.5]


def test_network_validation():
    eng = Engine()
    with pytest.raises(ValueError):
        Network(eng, bandwidth=0)
    with pytest.raises(ValueError):
        Network(eng, latency=-1)


# -- end to end ---------------------------------------------------------------------

def test_remote_write_read_round_trip():
    client, server, mount = small_world()
    payload = bytes(i % 241 for i in range(100 * KB))

    def work():
        vn = yield from mount.open("/data", create=True)
        yield from vn.rdwr(RW.WRITE, 0, payload)
        yield from vn.fsync()
        return (yield from vn.rdwr(RW.READ, 0, len(payload)))

    assert client.run(work()) == payload
    # The data is durably on the SERVER's disk.
    from repro.ufs import fsck

    server.sync()
    assert fsck(server.store).clean


def test_a_round_trip_of_whole_pages_leaves_no_private_buffer():
    """Each 8 KB record is one bytes object from the writer to the WRITE,
    the server's page and its disk, and back through the READ reply to the
    client's page: neither machine copies a page into a buffer of its own."""
    client, server, mount = small_world()
    payload = random.Random(7).randbytes(96 * KB)
    proc = Proc(client, name="nfs", mount=mount)

    def write_all():
        fd = yield from proc.open("/data", create=True)
        for offset in range(0, len(payload), 8 * KB):
            yield from proc.write(fd, payload[offset:offset + 8 * KB])
        yield from proc.fsync(fd)
        yield from proc.close(fd)

    def read_all():
        fd = yield from proc.open("/data")
        data = yield from proc.read(fd, len(payload))
        yield from proc.close(fd)
        return data

    client.run(write_all())
    client.pagecache.vnode_drop_clean(client.run(mount.namei("/data")))
    assert client.run(read_all()) == payload
    for system in (client, server):
        assert system.pagecache.frames_backed > 0
        assert system.pagecache.private_buffers == 0


def test_remote_data_really_lives_on_server():
    client, server, mount = small_world()

    def write_remote():
        vn = yield from mount.open("/shared", create=True)
        yield from vn.rdwr(RW.WRITE, 0, b"visible to local procs")
        yield from vn.fsync()

    client.run(write_remote())

    # A process ON THE SERVER sees the file through local UFS.
    server_proc = Proc(server, "local")

    def read_local():
        fd = yield from server_proc.open("/shared")
        return (yield from server_proc.read(fd, 100))

    assert server.run(read_local()) == b"visible to local procs"


def test_client_cache_avoids_repeat_rpcs():
    client, server, mount = small_world()
    payload = bytes(32 * KB)

    def setup():
        vn = yield from mount.open("/cached", create=True)
        yield from vn.rdwr(RW.WRITE, 0, payload)
        yield from vn.fsync()
        yield from vn.rdwr(RW.READ, 0, len(payload))  # populate
        return vn

    vn = client.run(setup())
    before = mount.stats["rpc_read"]

    def reread():
        return (yield from vn.rdwr(RW.READ, 0, len(payload)))

    assert client.run(reread()) == payload
    assert mount.stats["rpc_read"] == before  # served from client cache


def test_lookup_missing_remote_file():
    from repro.errors import FileNotFoundError_

    client, server, mount = small_world()
    with pytest.raises(FileNotFoundError_):
        client.run(mount.open("/nope"))


def test_sequential_read_triggers_biod_readahead():
    client, server, mount = small_world()
    payload = bytes(64 * KB)

    def setup():
        vn = yield from mount.open("/seq", create=True)
        yield from vn.rdwr(RW.WRITE, 0, payload)
        yield from vn.fsync()
        return vn

    vn = client.run(setup())
    for page in client.pagecache.vnode_pages(vn):
        if not page.locked and not page.dirty:
            client.pagecache.destroy(page)
    vn.readahead.reset()
    mount.stats.reset()

    def read_all():
        yield from vn.rdwr(RW.READ, 0, len(payload))

    client.run(read_all())
    # 8 pages: roughly one extra read-ahead RPC per page consumed.
    assert mount.stats["rpc_read"] >= 8


def test_write_behind_is_throttled():
    client, server, mount = small_world()
    payload = bytes(512 * KB)

    def work():
        vn = yield from mount.open("/big", create=True)
        yield from vn.rdwr(RW.WRITE, 0, payload)
        yield from vn.fsync()
        return vn

    vn = client.run(work())
    assert vn.throttle.sleeps > 0  # the 64 KB biod window filled
    assert mount.stats["remote_writes"] >= 60


def test_slow_network_bounds_throughput():
    """On a 10 Mbit wire the remote sequential read tops out near the wire
    rate, regardless of server-side clustering."""
    client, server, mount = small_world()
    payload = bytes(1 * MB)

    def setup():
        vn = yield from mount.open("/stream", create=True)
        yield from vn.rdwr(RW.WRITE, 0, payload)
        yield from vn.fsync()
        return vn

    vn = client.run(setup())
    for page in client.pagecache.vnode_pages(vn):
        if not page.locked and not page.dirty:
            client.pagecache.destroy(page)
    vn.readahead.reset()

    t0 = client.now

    def read_all():
        yield from vn.rdwr(RW.READ, 0, len(payload))

    client.run(read_all())
    rate = len(payload) / (client.now - t0)
    assert rate < ETHERNET_10MBIT  # can't beat the wire
    assert rate > 0.3 * ETHERNET_10MBIT  # but gets a decent fraction
