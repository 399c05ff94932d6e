#!/usr/bin/env python3
"""Timesharing fairness: the write-limit story, from the victims' side.

"This is a basic fairness problem — the asynchronous nature of writes may
be used to the advantage of one process, but it may be at the expense of
other processes in the system."  One bulk writer dumps a large core file
while an interactive user reads cold files; every read has to queue behind
the dumper's writes.  The per-file write limit bounds how much of the disk
queue (and of memory) the dumper may own, which bounds the reader's
latency.

Run:  python examples/timesharing_fairness.py
"""

import random

from repro.kernel import Proc, System, SystemConfig
from repro.units import KB, MB

CORE_SIZE = 10 * MB
READS = 40


def run(limit: int) -> dict:
    cfg = SystemConfig.config_a()
    cfg = cfg.with_(tuning=cfg.tuning.with_(write_limit=limit))
    system = System.booted(cfg)
    rng = random.Random(9)
    setup = Proc(system, "setup")

    # Files the interactive user will read, spread across the disk.
    def build_files():
        for i in range(READS):
            fd = yield from setup.creat(f"/doc{i:02d}")
            yield from setup.write(fd, bytes(16 * KB))
            yield from setup.fsync(fd)
            yield from setup.close(fd)

    system.run(build_files())
    for i in range(READS):
        vn = system.run(system.mount.namei(f"/doc{i:02d}"))
        system.pagecache.vnode_drop_clean(vn)

    latencies: list[float] = []
    done = {"dump": None}

    def core_dumper():
        proc = Proc(system, "dumper")
        fd = yield from proc.creat("/core")
        chunk = bytes(64 * KB)
        for _ in range(CORE_SIZE // len(chunk)):
            yield from proc.write(fd, chunk)
        yield from proc.fsync(fd)
        done["dump"] = system.now

    def reader():
        proc = Proc(system, "reader")
        for i in range(READS):
            yield system.engine.timeout(0.1 * rng.uniform(0.5, 1.5))
            t0 = system.now
            fd = yield from proc.open(f"/doc{i:02d}")
            yield from proc.read(fd, 16 * KB)
            yield from proc.close(fd)
            latencies.append(system.now - t0)

    system.run_all([core_dumper(), reader()])
    latencies.sort()
    return {
        "mean": sum(latencies) / len(latencies),
        "p90": latencies[int(0.9 * len(latencies))],
        "worst": latencies[-1],
        "dump_time": done["dump"],
        "max_queue": system.driver.queue_depth.maximum,
        "pinned": system.driver.queue_bytes.maximum,
        "memory": system.pagecache.total_pages * system.pagecache.page_size,
    }


def main() -> None:
    print(f"one {CORE_SIZE // MB} MB core dump vs an interactive reader\n")
    for limit, label in ((0, "no write limit (old 4.1 behaviour)"),
                         (240 * KB, "240 KB write limit (the paper's fix)")):
        stats = run(limit)
        print(f"  {label}:")
        print(f"    cold-read latency: mean {stats['mean'] * 1000:5.0f} ms, "
              f"p90 {stats['p90'] * 1000:5.0f} ms, "
              f"worst {stats['worst'] * 1000:5.0f} ms")
        pinned_pct = stats["pinned"] / stats["memory"]
        print(f"    dumper finished at {stats['dump_time']:.2f} s; "
              f"peak memory pinned in the write queue: "
              f"{stats['pinned'] / MB:.1f} MB ({pinned_pct:.0%} of RAM), "
              f"{stats['max_queue']:.0f} requests\n")
    print("Without the limit, one process's dirty pages pin most of memory"
          "\n('all the pages are essentially locked'); the 240 KB limit caps"
          "\nthe damage — the fairness trade-off the paper chose (and the"
          "\nreason figure 10's random-update column got *worse*).")


if __name__ == "__main__":
    main()
