"""A seeded allocator workout and the trace it leaves.

``run(fsize)`` boots a small system, drives one seeded
create/extend/truncate/unlink/mkdir sequence through the syscall layer and
returns every allocator decision in order plus the synced image's digest.
``test_cgmap_kernels.py`` compares that against ``golden/alloc_trace.json``;
re-record (only when the allocation *policy* is meant to change) with::

    PYTHONPATH=src python -m tests.properties.alloc_trace
"""

import hashlib
import json
import random
from dataclasses import replace
from pathlib import Path

from repro.disk import DiskGeometry
from repro.errors import ReproError
from repro.kernel import Proc, System, SystemConfig

GOLDEN = Path(__file__).parent / "golden" / "alloc_trace.json"
SEED = 13
#: 8192/1024 is the shipped format.  The issue asked for 4096/1024 as the
#: second one, but the mount reads the superblock from a fixed sector 16 and
#: so needs 8 KB blocks; 8192/2048 and 8192/4096 give frag = 4 and 2, whose
#: data areas start mid-byte in the fragment map.
FSIZES = (1024, 2048, 4096)
KB = 1024


def _record(allocator, trace):
    """Wrap the allocator's public entry points on this instance."""

    def returning(name):
        inner = getattr(allocator, name)

        def wrapper(*args, **kwargs):
            result = yield from inner(*args, **kwargs)
            trace.append([name, result])
            return result

        setattr(allocator, name, wrapper)

    def freeing(name, describe):
        inner = getattr(allocator, name)

        def wrapper(*args, **kwargs):
            trace.append([name, *describe(*args, **kwargs)])
            return inner(*args, **kwargs)

        setattr(allocator, name, wrapper)

    for name in ("alloc_block", "alloc_frags", "realloc_frags", "alloc_inode"):
        returning(name)
    freeing("free_block", lambda ip, addr: (addr,))
    freeing("free_frags", lambda ip, addr, nfrags: (addr, nfrags))
    freeing("free_inode", lambda ino, was_dir: (ino,))


def _workout(system, proc, rng, trace):
    dirs = ["/"]
    files: list[str] = []
    serial = 0
    for _ in range(300):
        roll = rng.random()
        try:
            if roll < 0.08 and len(dirs) < 8:
                serial += 1
                path = f"{rng.choice(dirs).rstrip('/')}/d{serial}"
                yield from proc.mkdir(path)
                dirs.append(path)
            elif roll < 0.50 or not files:
                serial += 1
                path = f"{rng.choice(dirs).rstrip('/')}/f{serial}"
                size = rng.choice((rng.randrange(1, 8 * KB),
                                   rng.randrange(1, 8 * KB),
                                   rng.randrange(8 * KB, 40 * KB),
                                   rng.randrange(96 * KB, 140 * KB)))
                fd = yield from proc.creat(path)
                yield from proc.write(fd, bytes([serial & 0xFF]) * size)
                yield from proc.close(fd)
                files.append(path)
            elif roll < 0.72:
                # Extend: grows the tail fragment in place or moves it.
                path = rng.choice(files)
                fd = yield from proc.open(path)
                data = yield from proc.read(fd, 1 << 20)
                yield from proc.pwrite(fd, b"\xee" * rng.randrange(1, 6 * KB),
                                       len(data))
                yield from proc.close(fd)
            elif roll < 0.82:
                # Truncate: creat of an existing file empties it.
                fd = yield from proc.creat(rng.choice(files))
                yield from proc.close(fd)
            else:
                path = files.pop(rng.randrange(len(files)))
                yield from proc.unlink(path)
        except ReproError as exc:  # e.g. the minfree reserve: part of the trace
            trace.append(["error", type(exc).__name__])


def run(fsize: int) -> dict:
    config = SystemConfig.config_a()
    config = config.with_(
        geometry=DiskGeometry.uniform(cylinders=100, heads=4,
                                      sectors_per_track=32),
        fs_params=replace(config.fs_params, fsize=fsize))
    system = System.booted(config)
    trace: list = []
    _record(system.mount.allocator, trace)
    system.run(_workout(system, Proc(system), random.Random(SEED), trace))
    system.sync()
    return {
        "events": len(trace),
        "trace_sha256": hashlib.sha256(
            json.dumps(trace).encode()).hexdigest(),
        "head": trace[:24],
        "store_digest": system.store.digest(),
    }


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    lines = [f' "{fsize}": {json.dumps(run(fsize))}' for fsize in FSIZES]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {GOLDEN}")
