"""Tests for the sparse sector store."""

import pytest

from repro.disk import DiskStore


def test_unwritten_reads_zero():
    store = DiskStore(total_sectors=16)
    assert store.read(0, 2) == bytes(1024)


def test_write_read_round_trip():
    store = DiskStore(total_sectors=16)
    payload = bytes(range(256)) * 4  # 1024 bytes = 2 sectors
    store.write(3, payload)
    assert store.read(3, 2) == payload
    # Neighbours untouched.
    assert store.read(2, 1) == bytes(512)
    assert store.read(5, 1) == bytes(512)


def test_overwrite():
    store = DiskStore(total_sectors=4)
    store.write(0, b"\xaa" * 512)
    store.write(0, b"\xbb" * 512)
    assert store.read(0, 1) == b"\xbb" * 512


def test_zero_write_reclaims_sparse_entry():
    store = DiskStore(total_sectors=4)
    store.write(1, b"\xaa" * 512)
    assert len(store.nonzero_sectors()) == 1
    store.write(1, bytes(512))
    assert len(store.nonzero_sectors()) == 0
    assert store.read(1, 1) == bytes(512)


def test_bounds_checking():
    store = DiskStore(total_sectors=4)
    with pytest.raises(ValueError):
        store.read(3, 2)
    with pytest.raises(ValueError):
        store.read(-1, 1)
    with pytest.raises(ValueError):
        store.write(4, b"\x00" * 512)
    with pytest.raises(ValueError):
        store.read(0, 0)


def test_partial_sector_write_rejected():
    store = DiskStore(total_sectors=4)
    with pytest.raises(ValueError):
        store.write(0, b"abc")


def test_constructor_validation():
    with pytest.raises(ValueError):
        DiskStore(total_sectors=0)
    with pytest.raises(ValueError):
        DiskStore(total_sectors=4, sector_size=0)
