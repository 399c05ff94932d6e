#!/usr/bin/env python3
"""The raw-disk escape hatch vs the clustered file system.

The paper's first rejected alternative: "Some users, mostly those running
database applications, actually do this...  The fact that users resort to
the raw disk is usually an indication that the file system is too slow."

A database-style sequential table scan through: (1) the raw device, (2)
the old file system, (3) the clustered file system.  The paper's claim is
that after clustering, abandoning the file system buys almost nothing.

Run:  python examples/raw_disk_vs_fs.py
"""

from repro.kernel import Proc, System, SystemConfig
from repro.units import KB, MB
from repro.vfs import RW

SCAN_SIZE = 8 * MB


def raw_scan() -> float:
    system = System.booted(SystemConfig.config_a())
    raw = system.raw_disk
    start = 64 * MB  # scan a region well away from the file system front

    def scan():
        offset = start
        while offset < start + SCAN_SIZE:
            yield from raw.rdwr(RW.READ, offset, 56 * KB)
            offset += 56 * KB

    t0 = system.now
    system.run(scan())
    return SCAN_SIZE / (system.now - t0) / 1024


def fs_scan(config_name: str) -> float:
    system = System.booted(SystemConfig.by_name(config_name))
    proc = Proc(system)

    def build():
        fd = yield from proc.creat("/table.db")
        for _ in range(SCAN_SIZE // (64 * KB)):
            yield from proc.write(fd, bytes(64 * KB))
        yield from proc.fsync(fd)

    system.run(build())
    vn = system.run(system.mount.namei("/table.db"))
    system.pagecache.vnode_drop_clean(vn)
    vn.inode.readahead.reset()

    def scan():
        fd = yield from proc.open("/table.db")
        while True:
            data = yield from proc.read(fd, 56 * KB)
            if not data:
                break

    t0 = system.now
    system.run(scan())
    return SCAN_SIZE / (system.now - t0) / 1024


def main() -> None:
    raw = raw_scan()
    old = fs_scan("D")
    new = fs_scan("A")
    print(f"sequential {SCAN_SIZE // MB} MB table scan (56 KB records):\n")
    print(f"  raw disk        : {raw:7.0f} KB/s (no cache, no read-ahead, "
          f"no file abstraction)")
    print(f"  old UFS (D)     : {old:7.0f} KB/s "
          f"({old / raw:.0%} of raw — why databases fled)")
    print(f"  clustered UFS(A): {new:7.0f} KB/s "
          f"({new / raw:.0%} of raw — no reason left to flee)")


if __name__ == "__main__":
    main()
