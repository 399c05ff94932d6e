"""The related-work comparison: Peacock's S5FS clustering vs UFS clustering.

The paper's point is structural: both systems turn sequential I/O into
larger I/O, but S5FS's free-list allocator "gets scrambled as the file
system ages", so Peacock had to rewrite the allocator (changing the
on-disk format); the FFS allocator keeps laying files out contiguously, so
UFS clustering needed no format change.

We measure sequential read throughput of a 2 MB file on:
* fresh S5FS with mbread clustering (fast: the LIFO free list is still
  in disk order);
* aged S5FS with mbread clustering (slow again: no contiguity left);
* UFS config A on a comparably aged file system (clustering still works).
"""

import random

from benchmarks.conftest import cold_sequential_read
from repro.bench.agefs import age_filesystem
from repro.bench.report import Table
from repro.cpu import Cpu
from repro.disk import DiskDriver, DiskGeometry, RotationalDisk
from repro.kernel import Proc, System, SystemConfig
from repro.s5fs import S5FileSystem, s5_mkfs
from repro.sim import Engine
from repro.ufs import FsParams
from repro.units import KB, MB

FILE_SIZE = 1 * MB


def s5_cell(age: bool):
    engine = Engine()
    geom = DiskGeometry.uniform(cylinders=700, heads=4, sectors_per_track=32)
    disk = RotationalDisk(engine, geom)
    cpu = Cpu(engine)
    driver = DiskDriver(engine, disk, cpu=cpu)
    s5_mkfs(disk.store)
    fs = S5FileSystem(engine, cpu, driver, clustering=True, nbufs=128)

    contiguity_after_setup = 1.0
    if age:
        rng = random.Random(11)

        def churn():
            # Keep ~2 MB of small files circulating so the scrambled part
            # of the free list is larger than the victim file.
            live = []
            for i in range(900):
                ip = yield from fs.create(f"f{i}")
                yield from fs.write(ip, 0, bytes(rng.randrange(8, 96) * KB))
                live.append(f"f{i}")
                if len(live) > 30:
                    yield from fs.unlink(live.pop(rng.randrange(len(live))))

        engine.run_process(churn())
    contiguity_after_setup = fs.free_list_contiguity()

    def build():
        ip = yield from fs.create("victim")
        yield from fs.write(ip, 0, bytes(FILE_SIZE))
        yield from fs.sync()
        return ip

    ip = engine.run_process(build())
    # Purge the buffer cache with unrelated reads.
    def purge():
        for blk in range(fs.sb.data_start + 9000, fs.sb.data_start + 9128):
            yield from fs.cache.bread(blk)

    engine.run_process(purge())

    def read_back():
        yield from fs.read(ip, 0, FILE_SIZE)

    t0 = engine.now
    engine.run_process(read_back())
    rate = FILE_SIZE / (engine.now - t0) / 1024
    return rate, contiguity_after_setup


def ufs_cell():
    cfg = SystemConfig.config_a().with_(
        geometry=DiskGeometry.uniform(cylinders=700, heads=4,
                                      sectors_per_track=32),
        fs_params=FsParams.clustered(56 * KB),
    )
    system = System.booted(cfg)
    age_filesystem(system, target_utilization=0.6, seed=11, mean_file_kb=24)
    proc = Proc(system)

    def build():
        fd = yield from proc.creat("/victim")
        for _ in range(FILE_SIZE // (64 * KB)):
            yield from proc.write(fd, bytes(64 * KB))
        yield from proc.fsync(fd)

    system.run(build())
    return cold_sequential_read(system, Proc(system), "/victim")[1]


def test_s5fs_vs_ufs_clustering(once):
    def run():
        return {
            "s5fs fresh": s5_cell(age=False),
            "s5fs aged": s5_cell(age=True),
            "ufs aged": (ufs_cell(), None),
        }

    results = once(run)
    table = Table(
        title="Peacock comparison: sequential read of a 1 MB file (KB/s)",
        columns=["read rate", "freelist contiguity"],
    )
    for label, (rate, contig) in results.items():
        table.add_row(label, [round(rate),
                              "-" if contig is None else round(contig, 2)])
    print()
    print(table.render("{:>20}"))

    fresh, _ = results["s5fs fresh"]
    aged, aged_contig = results["s5fs aged"]
    ufs_rate = results["ufs aged"][0]
    # Fresh S5FS clustering works; aging destroys it.
    assert fresh > 1.5 * aged
    assert aged_contig < 0.5
    # UFS clustering survives aging (the FFS allocator keeps contiguity).
    assert ufs_rate > 1.5 * aged
