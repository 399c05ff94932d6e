"""Cluster-size sensitivity: why 56 KB default, why 120 KB for the bench.

The paper uses 56 KB clusters by default ("there are still drivers out
there with 16 bit limitations") but benchmarks configuration A at 120 KB.
The sweep separates the two benefits of clustering:

* **read throughput** is nearly flat in cluster size once the layout is
  contiguous — the drive's look-ahead buffer streams regardless — but the
  **CPU per byte** falls steeply with cluster size ("incur less CPU cost
  per byte"), which is the scaling-to-faster-disks motivation;
* **write throughput** scales directly with cluster size (each cluster
  write loses most of a rotation, so fewer, bigger clusters win).
"""

from repro.bench.report import Table
from repro.kernel import Proc, System, SystemConfig
from repro.ufs import FsParams
from repro.units import KB, MB

FILE_SIZE = 8 * MB


def seq_rates(cluster_kb):
    cfg = SystemConfig.config_a().with_(
        fs_params=FsParams.clustered(cluster_kb * KB))
    system = System.booted(cfg)
    proc = Proc(system)
    chunk = bytes(8 * KB)

    def write_phase():
        fd = yield from proc.creat("/f")
        for _ in range(FILE_SIZE // len(chunk)):
            yield from proc.write(fd, chunk)
        yield from proc.fsync(fd)

    t0 = system.now
    system.run(write_phase())
    write_rate = FILE_SIZE / (system.now - t0) / 1024

    vn = system.run(system.mount.namei("/f"))
    system.pagecache.vnode_drop_clean(vn)
    vn.inode.readahead.reset()

    def read_phase():
        fd = yield from proc.open("/f")
        while True:
            data = yield from proc.read(fd, 8 * KB)
            if not data:
                break

    t0 = system.now
    cpu0 = system.cpu.system_time
    system.run(read_phase())
    read_rate = FILE_SIZE / (system.now - t0) / 1024
    read_cpu_ms_per_mb = (system.cpu.system_time - cpu0) / (FILE_SIZE / MB) * 1000
    return read_rate, write_rate, read_cpu_ms_per_mb


def test_cluster_size_sweep(once):
    sizes = [8, 24, 56, 120, 240]

    def run():
        return {size: seq_rates(size) for size in sizes}

    results = once(run)
    table = Table(title="Cluster size sweep (config A machine)",
                  columns=["read KB/s", "write KB/s", "read CPU ms/MB"])
    for size, (r, w, cpu) in results.items():
        table.add_row(f"{size}KB", [round(r), round(w), round(cpu)])
    print()
    print(table.render("{:>15}"))

    # Reads are already streaming at any cluster size (contiguous layout +
    # track buffer); the cluster buys CPU, not bandwidth.  Through read()
    # the saving is muted because "the IObench CPU times are dominated by
    # the copy time" (the paper's reason for using mmap in figure 12) —
    # the per-I/O work still falls by ~an order of magnitude.
    assert results[56][0] > 0.9 * results[8][0]
    cpus = [results[s][2] for s in sizes]
    assert all(b <= a for a, b in zip(cpus, cpus[1:]))  # monotone decrease
    assert results[120][2] < 0.93 * results[8][2]
    # Writes scale with cluster size (fewer rotation misses per byte).
    assert results[240][1] > results[24][1] > results[8][1]
    assert results[120][1] > 3 * results[8][1]
