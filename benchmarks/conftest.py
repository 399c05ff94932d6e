"""Shared benchmark fixtures and reporting helpers.

Every benchmark prints the table/figure it regenerates (run pytest with
``-s`` to see them; the same numbers are summarised in EXPERIMENTS.md).
pytest-benchmark's timer measures the wall-clock cost of running the
simulation; the *results* are simulated quantities printed by each bench.

The four benches that commit numbers write them as ``repro-bench/v1``
documents (:func:`repro.obs.bench.write_document`) at the repo root.
"""

import hashlib
from pathlib import Path

import pytest

from repro.obs.bench import write_document
from repro.units import KB

ROOT = Path(__file__).resolve().parents[1]
RECORD = 8 * KB


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark and return its result."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


@pytest.fixture
def once(benchmark):
    def _run(fn):
        return run_once(benchmark, fn)

    return _run


@pytest.fixture(scope="module")
def sections(request):
    """A module's result sections, one per test, written as its one
    ``BENCH_<NAME>.json`` (the module's ``DOCUMENT`` / ``RUN``) when the
    module is done — whole, so a section whose test is gone goes too."""
    results = {}
    yield results
    module = request.module
    write_document(ROOT / module.DOCUMENT, module.RUN, results)


def write_patterned_file(system, proc, path, size):
    """Create ``path``: ``size`` bytes of 8 KB records, each filled with
    its index mod 251; fsync, close."""

    def write_phase():
        fd = yield from proc.creat(path)
        for i in range(size // RECORD):
            yield from proc.write(fd, bytes([i % 251]) * RECORD)
        yield from proc.fsync(fd)
        yield from proc.close(fd)

    system.run(write_phase())


def cold_sequential_read(system, proc, path):
    """Drop ``path``'s cached pages and read-ahead state, then read it
    front to back in 8 KB records: ``(sha256 hex, KB/s)``."""
    vn = system.run(system.mount.namei(path))
    system.pagecache.vnode_drop_clean(vn)
    vn.inode.readahead.reset()
    digest = hashlib.sha256()
    nbytes = 0

    def read_phase():
        nonlocal nbytes
        fd = yield from proc.open(path)
        while True:
            data = yield from proc.read(fd, RECORD)
            if not data:
                break
            digest.update(data)
            nbytes += len(data)

    t0 = system.now
    system.run(read_phase())
    return digest.hexdigest(), nbytes / (system.now - t0) / 1024
