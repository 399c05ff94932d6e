"""The volume's address map and device books against flat models.

A layout defines two functions — ``pieces`` and its inverse
``member_to_logical`` — plus ``copies``; everything else (``extents``,
``logical_of``, the logical store, the cache view) is derived.  So one
model covers every layout: generated ranges and writes on small volumes,
checked against a flat ``bytearray`` and a plain :class:`DiskStore`.

Hand mutations that must each fail this file (run by hand, listed in
CHANGES.md): ``copies`` returning only the reader on a mirror, ``extents``
not merging, ``_settle`` skipped in ``_finish_parent``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk import Buf, BufOp, DiskGeometry, DiskStore
from repro.disk.volume import VolumeSpec, build_volume
from repro.kernel.config import SystemConfig
from repro.kernel.system import System
from repro.obs.metrics import MetricsRegistry
from repro.sim.engine import Engine
from repro.units import KB, SECTOR_SIZE

#: 512 sectors a member: every chunk size below divides it.
SMALL = DiskGeometry.uniform(cylinders=8, heads=2, sectors_per_track=32)
LAYOUTS = (["concat:2", "mirror:2", "mirror:3"]
           + [f"stripe:{n}:chunk={chunk}"
              for n in (2, 3, 4) for chunk in ("512", "16k", "64k")])


def _volume(layout):
    engine = Engine()
    return build_volume(engine, MetricsRegistry(engine),
                        SystemConfig(layout=layout, geometry=SMALL))


@st.composite
def ranges(draw, total, max_count=300):
    count = draw(st.integers(1, min(max_count, total)))
    return draw(st.integers(0, total - count)), count


@st.composite
def degradations(draw, layout):
    """``(failed, resyncing)`` member indexes (None: healthy) — a mirror
    may lose one member and be resyncing another; other layouts stay whole."""
    spec = VolumeSpec.parse(layout)
    if spec.kind != "mirror":
        return None, None
    members = st.none() | st.integers(0, spec.nmembers - 1)
    return draw(members), draw(members)


def _degrade(vol, failed, resyncing):
    for member in vol.members:
        member.failed = member.index == failed
        member.resyncing = member.index == resyncing


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_pieces_cover_a_range_once_and_member_to_logical_inverts(data):
    layout = data.draw(st.sampled_from(LAYOUTS))
    vol = _volume(layout)
    _degrade(vol, *data.draw(degradations(layout)))
    sector, count = data.draw(ranges(vol.logical_sectors))
    lsec = sector
    for mi, msec, cnt in vol.pieces(sector, count):
        assert cnt > 0 and mi in vol.copies(mi)
        for copy in vol.copies(mi):
            assert vol.member_to_logical(copy, msec, cnt) == [(lsec, 0, cnt)]
            assert vol.logical_of(copy, msec + cnt - 1) == lsec + cnt - 1
        lsec += cnt
    assert lsec == sector + count
    if vol.kind == "mirror":
        return  # its extents are read/write policy, not the merged map
    # extents: the same sectors, at most one transfer per member-adjacent run.
    extents = vol.extents(sector, count, write=False)
    covered = sorted(
        s for mi, msec, cnt in extents
        for run, _, n in vol.member_to_logical(mi, msec, cnt)
        for s in range(run, run + n))
    assert covered == list(range(sector, sector + count))
    ends = {(mi, msec + cnt) for mi, msec, cnt in extents}
    assert not any((mi, msec) in ends for mi, msec, _ in extents)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_logical_store_matches_a_flat_bytearray(data):
    layout = data.draw(st.sampled_from(LAYOUTS))
    vol = _volume(layout)
    store = vol.store
    flat = bytearray(store.total_sectors * SECTOR_SIZE)
    plain = DiskStore(store.total_sectors, SECTOR_SIZE)

    def write_some():
        for _ in range(data.draw(st.integers(1, 6))):
            sector, count = data.draw(ranges(store.total_sectors, 200))
            pattern = data.draw(st.binary(min_size=1, max_size=4))
            payload = (pattern * (count * SECTOR_SIZE))[:count * SECTOR_SIZE]
            store.write(sector, payload)
            plain.write(sector, payload)
            flat[sector * SECTOR_SIZE:(sector + count) * SECTOR_SIZE] = payload

    write_some()
    # A member lost (or resyncing) after the writes moves the reads to
    # another copy, which must hold the same bytes; later writes still
    # reach every copy.
    _degrade(vol, *data.draw(degradations(layout)))
    write_some()
    for _ in range(4):
        sector, count = data.draw(ranges(store.total_sectors))
        want = bytes(flat[sector * SECTOR_SIZE:(sector + count) * SECTOR_SIZE])
        assert store.read(sector, count) == want
        off = 0
        for mi, msec, cnt in vol.pieces(sector, count):
            for copy in vol.copies(mi):
                assert (vol.members[copy].store.read(msec, cnt)
                        == want[off:off + cnt * SECTOR_SIZE])
            off += cnt * SECTOR_SIZE
    assert store.digest() == plain.digest()
    dup = store.clone()
    assert dup.digest() == plain.digest()
    dup.write(0, b"\xfe" * SECTOR_SIZE)
    assert store.digest() == plain.digest()
    store.write(1, b"\xfd" * SECTOR_SIZE)
    assert dup.read(1, 1) == bytes(flat[SECTOR_SIZE:2 * SECTOR_SIZE])


@pytest.mark.parametrize("layout, ns", [("single", "disk.driver"),
                                        ("stripe:2", "volume")])
def test_device_books_balance(layout, ns):
    """A disk driver and a volume keep the same books (``BlockDevice``):
    five instruments under one namespace, and every accepted buf settled."""
    system = System(SystemConfig(layout=layout, geometry=SMALL,
                                 write_cache=True))
    device = system.driver
    names = {n[len(ns):] for n in system.metrics.namespaces()
             if n == ns or n.startswith(ns + ".")}
    assert names == {"", ".queue_depth", ".queue_bytes", ".wait", ".service"}

    def work():
        write = device.strategy(Buf(system.engine, BufOp.WRITE, 100, 256,
                                    data=b"\x5a" * (128 * KB)))
        yield write.done
        read = device.strategy(Buf(system.engine, BufOp.READ, 130, 200))
        flush = device.issue_flush()
        yield read.done
        yield flush.done
        return read.data

    assert system.run(work()) == b"\x5a" * (200 * SECTOR_SIZE)
    stats = device.stats
    assert stats["requests"] == stats["tracked_issued"] == 3
    assert stats["tracked_completed"] == stats["completions"] == 3
    assert stats["flushes"] == 1 and stats["bytes"] == 456 * SECTOR_SIZE
    assert device.outstanding == {} and device.idle
    assert device.queue_bytes.value == 0 and device.queue_depth.value == 0
    assert device.wait_hist.count == device.service_hist.count == 3
