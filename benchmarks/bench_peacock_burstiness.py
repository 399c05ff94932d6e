"""The Peacock flush-burst comparison (related-work section).

"Our write algorithm is different, it starts a write each time a cluster
boundary is crossed.  Peacock's waits until the buffer cache fills...  the
flush may cause a proportionally large I/O burst.  If the I/O were flushed
to disk at each cluster boundary, the disks are kept uniformly busy,
instead [of] developing large disk queues.  Smoothing out the disk queue
will improve perceived performance since new requests will be serviced
quickly."

A steady writer produces data for 20 simulated seconds under (a) the
paper's cluster-boundary flushing and (b) Peacock-style accumulation with
a periodic update-daemon flush.  We compare the peak disk-queue depth and
the latency of an innocent bystander read issued mid-flush.
"""

from repro.bench.report import Table
from repro.disk import DiskGeometry
from repro.kernel import Proc, System, SystemConfig
from repro.kernel.update import UpdateDaemon
from repro.units import KB


def run_cell(lazy):
    cfg = SystemConfig.config_a().with_(
        geometry=DiskGeometry.uniform(cylinders=400, heads=4,
                                      sectors_per_track=32))
    cfg = cfg.with_(tuning=cfg.tuning.with_(
        lazy_writeback=lazy, write_limit=0))
    system = System.booted(cfg)
    proc = Proc(system)
    if lazy:
        UpdateDaemon(system.engine, system.mount, period=5.0)

    # A bystander file to read during the run.
    def setup():
        fd = yield from proc.creat("/bystander")
        yield from proc.write(fd, bytes(16 * KB))
        yield from proc.fsync(fd)

    system.run(setup())
    vn = system.run(system.mount.namei("/bystander"))
    system.pagecache.vnode_drop_clean(vn)

    read_latencies = []

    def steady_writer():
        fd = yield from proc.creat("/log")
        for _ in range(200):  # 200 x 64 KB over ~20 s
            yield from proc.write(fd, bytes(64 * KB))
            yield system.engine.timeout(0.1)
        yield from proc.fsync(fd)

    def bystander():
        reader = Proc(system, "bystander")
        for i in range(8):
            yield system.engine.timeout(2.6)
            t0 = system.now
            fd = yield from reader.open("/bystander")
            yield from reader.read(fd, 16 * KB)
            yield from reader.close(fd)
            read_latencies.append(system.now - t0)
            # Drop it again for the next cold read.
            vn2 = yield from system.mount.namei("/bystander")
            system.pagecache.vnode_drop_clean(vn2)

    system.run_all([steady_writer(), bystander()])
    return {
        "max_queue": system.driver.queue_depth.maximum,
        "avg_queue": system.driver.queue_depth.average(),
        "worst_read_ms": max(read_latencies) * 1000,
    }


def test_cluster_boundary_flushing_keeps_queues_smooth(once):
    def run():
        return {"boundary": run_cell(False), "accumulate": run_cell(True)}

    results = once(run)
    table = Table(
        title="Write-back policy vs disk queue (steady 640 KB/s writer)",
        columns=["max queue", "avg queue", "worst read ms"],
    )
    table.add_row("cluster boundary (ours)", [
        int(results["boundary"]["max_queue"]),
        round(results["boundary"]["avg_queue"], 1),
        round(results["boundary"]["worst_read_ms"]),
    ])
    table.add_row("accumulate + update (Peacock)", [
        int(results["accumulate"]["max_queue"]),
        round(results["accumulate"]["avg_queue"], 1),
        round(results["accumulate"]["worst_read_ms"]),
    ])
    print()
    print(table.render("{:>16}"))

    smooth, bursty = results["boundary"], results["accumulate"]
    # Accumulation develops much larger queues at flush time...
    assert bursty["max_queue"] > 3 * smooth["max_queue"]
    # ...and the bystander's worst-case read suffers for it.
    assert bursty["worst_read_ms"] > 2 * smooth["worst_read_ms"]
