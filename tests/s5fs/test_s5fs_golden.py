"""S5FS's simulated numbers are a contract.

``golden/s5fs_numbers.json`` was recorded at the commit *before* S5FS moved
off its private ``BufferCache`` onto the kernel's one buffer cache
(``repro.ufs.metacache.MetaCache``): for a fresh and an aged file system,
with and without Peacock clustering, the sequential-read rate of a small
file, the simulated clock, every buffer-cache counter and the image digest
after ``sync``.  A change to the cache that moves one simulated I/O, one
LRU decision or one on-disk byte of S5FS fails here.  Re-record (only when
a number is *meant* to change) with::

    PYTHONPATH=src python -m tests.s5fs.test_s5fs_golden
"""

import json
import random
from pathlib import Path

import pytest

from repro.cpu import Cpu
from repro.disk import DiskDriver, DiskGeometry, RotationalDisk
from repro.s5fs import S5FileSystem, s5_mkfs
from repro.sim import Engine
from repro.units import KB

GOLDEN = Path(__file__).parent / "golden" / "s5fs_numbers.json"
FILE_SIZE = 192 * KB
CELLS = {f"{state}-{mode}": (state == "aged", mode == "clustered")
         for state in ("fresh", "aged") for mode in ("clustered", "plain")}


def measure(aged: bool, clustering: bool) -> dict:
    engine = Engine()
    geom = DiskGeometry.uniform(cylinders=200, heads=4, sectors_per_track=32)
    disk = RotationalDisk(engine, geom)
    cpu = Cpu(engine)  # the real cost table: the clock is part of the golden
    driver = DiskDriver(engine, disk, cpu=cpu)
    s5_mkfs(disk.store)
    fs = S5FileSystem(engine, cpu, driver, clustering=clustering)

    def churn():
        rng = random.Random(11)
        live = []
        for i in range(120):
            ip = yield from fs.create(f"f{i}")
            yield from fs.write(ip, 0, bytes(rng.randrange(4, 40) * KB))
            live.append(f"f{i}")
            if len(live) > 12:
                yield from fs.unlink(live.pop(rng.randrange(len(live))))

    def build():
        ip = yield from fs.create("victim")
        yield from fs.write(ip, 0, bytes(i % 251 for i in range(FILE_SIZE)))
        yield from fs.sync()
        # Purge the cache with unrelated reads, as the comparison bench does.
        for blk in range(fs.sb.data_start + 5000, fs.sb.data_start + 5064):
            yield from fs.cache.bread(blk)
        return ip

    if aged:
        engine.run_process(churn())
    ip = engine.run_process(build())
    t0 = engine.now
    data = engine.run_process(fs.read(ip, 0, FILE_SIZE))
    assert data == bytes(i % 251 for i in range(FILE_SIZE))
    read_s = engine.now - t0
    engine.run_process(fs.sync())
    return {
        "read_kbs": round(FILE_SIZE / KB / read_s, 6),
        "contiguity": round(fs.free_list_contiguity(), 6),
        "now": repr(engine.now),
        "cache": fs.cache.stats.as_dict(),
        "fs": fs.stats.as_dict(),
        "disk_reads": disk.stats["reads"],
        "disk_writes": disk.stats["writes"],
        "store": disk.store.digest(),
    }


GOLDENS = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_s5fs_numbers_match_the_golden(cell):
    assert measure(*CELLS[cell]) == GOLDENS[cell]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(
        {cell: measure(*args) for cell, args in sorted(CELLS.items())},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
