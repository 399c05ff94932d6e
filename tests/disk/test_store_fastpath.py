"""The DiskStore fast paths: correctness against a naive model, and a
generous wall-clock guard so the hot read/write loops stay hot.

The store sits under every timed transfer of every member of every
volume; a multi-member benchmark moves hundreds of megabytes through it,
so ``read``/``write`` must not regress to per-sector allocation storms.
"""

import random
import time

from repro.disk import DiskStore


class NaiveStore:
    """The obviously-correct reference: one bytes object per sector."""

    def __init__(self, total_sectors, sector_size=512):
        self.total_sectors = total_sectors
        self.sector_size = sector_size
        self.sectors = {}

    def read(self, sector, count):
        return b"".join(
            self.sectors.get(s, bytes(self.sector_size))
            for s in range(sector, sector + count))

    def write(self, sector, data):
        for i in range(len(data) // self.sector_size):
            chunk = data[i * self.sector_size:(i + 1) * self.sector_size]
            if chunk == bytes(self.sector_size):
                self.sectors.pop(sector + i, None)
            else:
                self.sectors[sector + i] = chunk


def test_fast_paths_match_naive_model():
    store = DiskStore(total_sectors=4096)
    model = NaiveStore(4096)
    rng = random.Random(42)
    for _ in range(400):
        count = rng.randrange(1, 32)
        sector = rng.randrange(4096 - count)
        if rng.random() < 0.55:
            # Mix zero runs in so the sparse-reclaim path is exercised.
            fill = 0 if rng.random() < 0.25 else rng.randrange(1, 256)
            data = bytes([fill]) * (count * 512)
            store.write(sector, data)
            model.write(sector, data)
        else:
            assert store.read(sector, count) == model.read(sector, count)
    assert store.nonzero_sectors() == sorted(model.sectors)


def test_empty_store_read_is_zeros():
    store = DiskStore(total_sectors=64)
    assert store.read(0, 64) == bytes(64 * 512)
    assert store.read(5, 1) == bytes(512)


def test_single_sector_paths():
    store = DiskStore(total_sectors=8)
    store.write(3, b"\x7e" * 512)
    assert store.read(3, 1) == b"\x7e" * 512
    store.write(3, bytes(512))  # zero write reclaims the entry
    assert len(store.nonzero_sectors()) == 0


def test_zero_runs_in_large_writes_are_reclaimed():
    store = DiskStore(total_sectors=64)
    store.write(0, b"\xff" * (32 * 512))
    assert len(store.nonzero_sectors()) == 32
    # Overwrite the middle with zeros inside one large write.
    data = b"\xff" * (8 * 512) + bytes(16 * 512) + b"\xff" * (8 * 512)
    store.write(0, data)
    assert len(store.nonzero_sectors()) == 16
    assert store.read(0, 32) == data


def test_differing_sectors():
    a = DiskStore(total_sectors=64)
    b = DiskStore(total_sectors=64)
    assert a.differing_sectors(b) == []
    a.write(3, b"\x01" * 512)          # only in a
    b.write(9, b"\x02" * 512)          # only in b
    a.write(20, b"\x03" * 512)         # same in both
    b.write(20, b"\x03" * 512)
    a.write(30, b"\x04" * 512)         # different bytes
    b.write(30, b"\x05" * 512)
    assert a.differing_sectors(b) == [3, 9, 30]
    assert b.differing_sectors(a) == [3, 9, 30]


def test_differing_sectors_rejects_size_mismatch():
    import pytest

    a = DiskStore(total_sectors=64)
    b = DiskStore(total_sectors=32)
    with pytest.raises(ValueError):
        a.differing_sectors(b)


def test_large_contiguous_io_wall_clock_guard():
    """64 MB of contiguous 64 KB transfers must finish far inside a second
    per direction — a regression to per-sector allocation blows this by an
    order of magnitude.  The bound is deliberately generous (CI machines
    vary); it guards against algorithmic regressions, not percent drift."""
    total = 256 * 1024  # sectors = 128 MB device
    store = DiskStore(total_sectors=total)
    chunk = 128  # sectors = 64 KB
    payload = bytes(range(256)) * 256  # 64 KB, non-zero
    t0 = time.perf_counter()
    for sector in range(0, 128 * 1024, chunk):
        store.write(sector, payload)
    write_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    for sector in range(0, 128 * 1024, chunk):
        assert len(store.read(sector, chunk)) == 64 * 1024
    read_s = time.perf_counter() - t0
    assert write_s < 2.0, f"store writes took {write_s:.2f}s for 64 MB"
    assert read_s < 2.0, f"store reads took {read_s:.2f}s for 64 MB"
