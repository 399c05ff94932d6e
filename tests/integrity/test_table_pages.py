"""The record table is cached by page, on first touch, and written through.

The reference is the thing the paged cache replaced: one dense decode of
the table's on-disk bytes.  After any sequence of stamps the cache, the
bytes under it and a region freshly found on the same store must tell the
same story for every fragment — including the one record in 21 that
straddles a sector boundary, whose tail a lone stamp used to leave behind.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk.store import DiskStore
from repro.integrity import IntegrityRegion, Record
from repro.integrity.checksum import (
    PAGE_RECORDS, PAGE_SECTORS, RECORD_FMT, RECORD_SIZE,
)
from repro.kernel import System, SystemConfig
from repro.nfs import build_world
from repro.units import SECTOR_SIZE

from tests.integrity.conftest import checksum_config


def dense_table(region):
    """Every record, decoded from the store's table bytes in one read."""
    raw = region.store.read(region.table_sector, region.table_sectors)
    return [Record(*struct.unpack_from(RECORD_FMT, raw, frag * RECORD_SIZE))
            for frag in range(region.nfrags)]


def straddles(frag):
    return frag * RECORD_SIZE % SECTOR_SIZE > SECTOR_SIZE - RECORD_SIZE


# -- the straddle fix --------------------------------------------------------


@pytest.mark.parametrize("frag", [2066, 2121])
def test_a_lone_stamp_of_a_straddling_record_is_written_through(frag):
    """Record-table offsets 57 848 and 59 388: 504 and 508 past a sector
    start, so the generation (2066) and everything from ``self_frag`` on
    (2121) live in the *next* sector."""
    assert straddles(frag)
    config = SystemConfig.config_a().with_(checksums=True)
    system = System.booted(config)
    region = system.disk.integrity
    fs = region.frag_sectors
    payload = bytes([frag % 251]) * region.fsize
    system.store.write(frag * fs, payload)
    assert region.stamp_range(frag * fs, payload) == 1

    stamped = region.record(frag)
    assert stamped.gen == 1 and stamped.self_frag == frag
    assert IntegrityRegion.find(system.store).record(frag) == stamped

    # What the lost tail cost: after a remount the fragment read as
    # "never stamped", so rot in it went unseen.
    survivor = System.remounted(system.store, config)
    rotted = bytearray(payload)
    rotted[9] ^= 0x10
    assert (survivor.disk.integrity.verify_range(frag * fs, bytes(rotted))
            == [(frag, "crc")])


def test_mark_bad_and_misdirect_reach_the_disk_on_a_straddling_record(system):
    region = system.disk.integrity
    fpb, fs = region.frags_per_block, region.frag_sectors
    frag = next(f for f in range(region.sb.cg_data_frag(0) + fpb, region.nfrags)
                if straddles(f))
    # A whole-block stamp first: its dirty sectors are contiguous, so the
    # record is on disk and only the lone updates below are under test.
    block = frag // fpb * fpb
    region.stamp_range(block * fs, b"\x07" * (fpb * region.fsize))
    region.mark_bad(frag)
    assert IntegrityRegion.find(system.store).record(frag).bad
    region.forge_misdirect(frag, b"\x01" * region.fsize)
    assert IntegrityRegion.find(system.store).record(frag) == region.record(frag)


# -- paged cache against the dense decode ------------------------------------


def interesting_frags(nfrags):
    """Page edges, the short last page, and straddling records."""
    edges = {0, PAGE_RECORDS - 1, PAGE_RECORDS, 2 * PAGE_RECORDS - 1,
             nfrags // PAGE_RECORDS * PAGE_RECORDS, nfrags - 1}
    edges.update(f for f in range(3 * PAGE_RECORDS) if straddles(f))
    return sorted(f for f in edges if 0 <= f < nfrags)


OPS = st.lists(st.tuples(
    st.sampled_from(["stamp", "stamp", "mark_bad", "misdirect"]),
    st.integers(0, 2**20),                 # which fragment (see _pick)
    st.integers(1, 9),                     # run length in fragments
    st.integers(0, 255),                   # payload byte
    st.one_of(st.none(), st.tuples(st.integers(3, 99), st.integers(0, 50))),
), max_size=24)


def _pick(choice, nfrags):
    hot = interesting_frags(nfrags)
    return hot[choice % len(hot)] if choice % 3 else choice % nfrags


@pytest.mark.parametrize("layout", ["single", "stripe:4"])
@settings(max_examples=20, deadline=None)
@given(ops=OPS)
def test_paged_table_matches_a_dense_decode_of_the_disk(layout, ops):
    system = System(checksum_config(layout=layout))
    system.mkfs()
    region = system.disk.integrity
    fs, nfrags = region.frag_sectors, region.nfrags
    for op, choice, run, byte, owner in ops:
        frag = _pick(choice, nfrags)
        if op == "stamp":
            run = min(run, nfrags - frag)
            data = bytes([byte]) * (run * region.fsize)
            if any(region.frag_kind(f) != "data"
                   for f in range(frag, frag + run)):
                # A stamp refreshes the sb / cg replica find() parses: give
                # those fragments the bytes they really hold.
                data = system.store.read(frag * fs, run * fs)
            region.stamp_range(frag * fs, data, owner)
        elif op == "mark_bad":
            region.mark_bad(frag)
        else:
            region.forge_misdirect(frag, bytes([byte]) * region.fsize)

    dense = dense_table(region)
    live = [frag for frag, rec in enumerate(dense) if rec.gen]
    found = IntegrityRegion.find(system.store)
    assert found.pages_loaded == 0
    for view in (region, found):
        assert view.stamped_frags() == live
        assert [view.record(frag) for frag in range(nfrags)] == dense
    assert found.pages_loaded == -(-found.table_sectors // PAGE_SECTORS)


def test_stamped_frags_finds_a_lone_record_in_any_table_sector(system):
    """The walk trusts the store's non-zero sectors to name the pages worth
    decoding: one live record must be enough, wherever in its page it sits,
    in the table's first sector and in its last."""
    blank = DiskStore(system.store.total_sectors)
    # Block 1, the superblock: all find() needs of the old disk.
    blank.write(16, system.store.read(16, 16))
    region = IntegrityRegion.create(blank, system.disk.integrity.sb)
    assert region.stamped_frags() == []

    fs = region.frag_sectors
    lone = [0, region.nfrags - 1]
    for sector in range(PAGE_SECTORS):  # a record wholly inside each one
        slot = -(-sector * SECTOR_SIZE // RECORD_SIZE)
        assert not straddles(slot)
        lone.append((10 + sector) * PAGE_RECORDS + slot)
    for frag in lone:
        assert region.frag_kind(frag) == "data"
        region.stamp_range(frag * fs, b"\x01" * region.fsize)
    assert region.stamped_frags() == sorted(lone)
    assert IntegrityRegion.find(blank).stamped_frags() == sorted(lone)


# -- what a machine costs ----------------------------------------------------


def test_nfs_stripe_server_loads_a_sliver_of_its_table(monkeypatch):
    """perfbench's ``nfs_stripe`` set-up: a 41.8 MiB table on a 4-member
    stripe, of which ``mkfs`` and mount touch one page per cylinder group."""
    built = []
    real_init = IntegrityRegion.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(IntegrityRegion, "__init__", counting_init)
    config = SystemConfig.config_a().with_(
        layout="stripe:4", checksums=True, write_cache=True)
    _client, server, _mount = build_world(server_config=config)

    assert built == [server.disk.integrity]  # mkfs's region, not a second find
    region = server.disk.integrity
    assert region.table_sectors * SECTOR_SIZE > 41 * 2**20
    assert region.pages_loaded == 389  # 388 cg headers + cg 0's inodes and root
    assert region.pages_loaded * PAGE_SECTORS * SECTOR_SIZE <= 4 * 2**20
