"""Does clustering survive the wire?  (the figure 1 NFS scenario)

"An additional goal was that *all* users of the file system should benefit
from the enhancements" — including remote NFS clients, whose reads are
ultimately served by the server's UFS.  We stream a file to an NFS client
over a 1991 Ethernet (10 Mbit/s ≈ 1.2 MB/s) and over a faster wire, with
the server running the clustered (A) and stock (D) kernels.

Expected shape: on the slow wire, D's disk (~780 KB/s) is the bottleneck
and clustering helps; on a fast wire the server disk is always the
bottleneck and the full ~1.9x ratio reappears.
"""

from repro.bench.report import Table
from repro.kernel import SystemConfig
from repro.nfs import build_world
from repro.nfs.net import ETHERNET_10MBIT
from repro.units import KB, MB
from repro.vfs import RW

FILE_SIZE = 4 * MB


def stream(config_name, bandwidth):
    server_cfg = SystemConfig.by_name(config_name)
    client, server, mount = build_world(server_config=server_cfg,
                                        bandwidth=bandwidth)

    def setup():
        vn = yield from mount.open("/stream", create=True)
        yield from vn.rdwr(RW.WRITE, 0, bytes(FILE_SIZE))
        yield from vn.fsync()
        return vn

    vn = client.run(setup())
    # Cold caches on both machines.
    client.pagecache.vnode_drop_clean(vn)
    vn.readahead.reset()
    server_vn = server.run(server.mount.namei("/stream"))
    server.pagecache.vnode_drop_clean(server_vn)
    server_vn.inode.readahead.reset()

    t0 = client.now

    def read_all():
        offset = 0
        while offset < FILE_SIZE:
            data = yield from vn.rdwr(RW.READ, offset, 8 * KB)
            offset += len(data)

    client.run(read_all())
    return FILE_SIZE / (client.now - t0) / 1024


def test_clustering_through_nfs(once):
    fast_wire = 8 * ETHERNET_10MBIT  # a future faster LAN

    def run():
        return {
            ("A", "10Mbit"): stream("A", ETHERNET_10MBIT),
            ("D", "10Mbit"): stream("D", ETHERNET_10MBIT),
            ("A", "fast"): stream("A", fast_wire),
            ("D", "fast"): stream("D", fast_wire),
        }

    results = once(run)
    table = Table(
        title="NFS sequential read, 4 MB file (client KB/s)",
        columns=["10Mbit wire", "fast wire"],
    )
    for cfg in ("A", "D"):
        table.add_row(f"server {cfg}", [
            round(results[(cfg, "10Mbit")]),
            round(results[(cfg, "fast")]),
        ])
    print()
    print(table.render("{:>13}"))

    slow_ratio = results[("A", "10Mbit")] / results[("D", "10Mbit")]
    fast_ratio = results[("A", "fast")] / results[("D", "fast")]
    print(f"\nA/D ratio: {slow_ratio:.2f} on the slow wire, "
          f"{fast_ratio:.2f} on the fast wire")
    # The wire caps the slow case; the disk ratio re-emerges on fast links.
    assert results[("A", "10Mbit")] < ETHERNET_10MBIT / 1024
    assert fast_ratio > slow_ratio
    assert fast_ratio > 1.5
    # Remote users still benefit even at 10 Mbit (D's disk is the choke).
    assert slow_ratio > 1.05
