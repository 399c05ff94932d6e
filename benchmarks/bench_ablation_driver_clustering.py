"""Ablation: the rejected "driver clustering" alternative.

"Have the disk driver combine (cluster) any contiguous requests in its
queue into one large request...  driver clustering helps only writes.  The
reason for this is that there can be many related writes in the disk queue
at once, since writes are asynchronous in nature.  Reads, on the other
hand, are synchronous, so there can be at most two ... in the queue at
once."  It also leaves the per-block file system CPU cost in place.

We run the old (unclustered) file system over a driver with coalescing on
and off, on a rotdelay=0 layout (driver clustering requires contiguity).
"""

from repro.bench.report import Table
from repro.kernel import Proc, System, SystemConfig
from repro.ufs import FsParams
from repro.units import KB, MB

FILE_SIZE = 8 * MB


def run_cell(coalesce):
    cfg = SystemConfig.config_d().with_(
        fs_params=FsParams(rotdelay_ms=0.0, maxcontig=1),
        driver_coalesce=coalesce,
        track_buffer=True,
    )
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
    read_cpu = system.cpu.system_time - cpu0
    coalesced = system.driver.stats["coalesced"]
    return read_rate, write_rate, read_cpu, coalesced


def test_driver_clustering_helps_only_writes(once):
    def run():
        return {False: run_cell(False), True: run_cell(True)}

    results = once(run)
    table = Table(
        title="Driver clustering ablation (old FS code, rotdelay=0)",
        columns=["seq read", "seq write", "read CPU", "merges"],
    )
    for coalesce, (r, w, cpu, merges) in results.items():
        label = "coalescing on" if coalesce else "coalescing off"
        table.add_row(label, [round(r), round(w), round(cpu, 2), int(merges)])
    print()
    print(table.render("{:>11}"))

    off, on = results[False], results[True]
    # Writes improve substantially: queued contiguous writes merge.
    assert on[1] > 1.5 * off[1]
    assert on[3] > 100  # it really did merge requests
    # Reads barely change: never more than ~2 reads queued at once.
    assert abs(on[0] - off[0]) / off[0] < 0.15
    # And the file system CPU per byte does not improve (same traversals).
    assert on[2] > 0.9 * off[2]
