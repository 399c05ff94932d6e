"""Tests for the volume layer: specs, address translation, fan-out/join.

The default layout must be the classic single-disk stack (same objects,
same behaviour); the multi-member layouts must translate addresses
losslessly, overlap member I/O in simulated time, and fan barriers/flushes
to every member that needs them.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.disk import DiskStore
from repro.disk.volume import (
    MirrorVolume, SingleVolume, StripeVolume, VolumeSpec,
    build_volume, concat_geometry,
)
from repro.errors import InvalidArgumentError
from repro.kernel.config import SystemConfig
from repro.kernel.syscalls import Proc
from repro.kernel.system import System
from repro.obs.metrics import MetricsRegistry
from repro.sim.engine import Engine
from repro.units import KB


# -- spec parsing ----------------------------------------------------------

def test_spec_parse_defaults():
    assert VolumeSpec.parse(None) == VolumeSpec()
    assert VolumeSpec.parse("single").kind == "single"
    assert VolumeSpec.parse("single").nmembers == 1


@pytest.mark.parametrize("text,kind,n", [
    ("concat:2", "concat", 2),
    ("stripe:4", "stripe", 4),
    ("mirror:2", "mirror", 2),
    ("STRIPE:3", "stripe", 3),
])
def test_spec_parse_kinds(text, kind, n):
    spec = VolumeSpec.parse(text)
    assert (spec.kind, spec.nmembers) == (kind, n)


def test_spec_parse_options():
    spec = VolumeSpec.parse("stripe:2:chunk=16k")
    assert spec.chunk_bytes == 16 * KB
    assert spec.describe() == "stripe:2:chunk=16k"
    spec = VolumeSpec.parse("mirror:3:read=shortest")
    assert spec.read_policy == "shortest"
    assert spec.describe() == "mirror:3:read=shortest"


@pytest.mark.parametrize("text", [
    "raid5:3",              # unknown kind
    "stripe",               # missing member count
    "stripe:x",             # bad member count
    "stripe:1",             # too few members
    "single:2",             # single has one member
    "stripe:2:chunk=0",     # chunk must be positive
    "stripe:2:chunk=100",   # chunk must be sector multiple
    "stripe:2:foo=1",       # unknown option
    "mirror:2:read=fastest",  # unknown read policy
    "concat:2:chunk=16k",   # an option the kind does not take ...
    "mirror:2:chunk=8k",
    "stripe:2:read=shortest",
    "single:chunk=64k",     # ... used to be accepted and dropped
])
def test_spec_parse_rejects(text):
    with pytest.raises(InvalidArgumentError):
        VolumeSpec.parse(text)


@pytest.mark.parametrize("text, described", [
    ("stripe:2:chunk=512", "stripe:2:chunk=512"),    # was chunk=0k
    ("stripe:2:chunk=1536", "stripe:2:chunk=1536"),  # was chunk=1k
    ("stripe:2:chunk=2048", "stripe:2:chunk=2k"),
])
def test_spec_describe_renders_the_chunk_exactly(text, described):
    assert VolumeSpec.parse(text).describe() == described


@given(st.one_of(
    st.just(VolumeSpec()),
    st.builds(VolumeSpec, kind=st.just("concat"), nmembers=st.integers(2, 9)),
    st.builds(VolumeSpec, kind=st.just("stripe"), nmembers=st.integers(2, 9),
              chunk_bytes=st.integers(1, 4096).map(lambda n: n * 512)),
    st.builds(VolumeSpec, kind=st.just("mirror"), nmembers=st.integers(2, 9),
              read_policy=st.sampled_from(["rr", "shortest"]))))
def test_spec_describe_parses_back_to_the_same_spec(spec):
    """``describe()`` is the ``layout`` of every bench cell: a run must be
    re-runnable from its own record."""
    assert VolumeSpec.parse(spec.describe()) == spec


# -- address translation ---------------------------------------------------

def _volume(layout, **cfg_kw):
    cfg = SystemConfig(layout=layout, **cfg_kw)
    engine = Engine()
    return build_volume(engine, MetricsRegistry(engine), cfg)


@pytest.mark.parametrize("layout", [
    "concat:2", "stripe:2", "stripe:3:chunk=16k", "mirror:2",
])
def test_translation_round_trip(layout):
    vol = _volume(layout)
    rng = random.Random(7)
    for _ in range(200):
        lsec = rng.randrange(vol.logical_sectors)
        pieces = vol.pieces(lsec, 1)
        mi, msec, cnt = pieces[0]
        assert cnt == 1
        assert vol.logical_of(mi, msec) == lsec
        # member_to_logical is the inverse of the piece mapping.
        assert vol.member_to_logical(mi, msec, 1)[0][0] == lsec


@pytest.mark.parametrize("layout", ["concat:2", "stripe:4", "stripe:2:chunk=16k"])
def test_pieces_cover_range_exactly(layout):
    vol = _volume(layout)
    rng = random.Random(11)
    for _ in range(100):
        count = rng.randrange(1, 300)
        sector = rng.randrange(vol.logical_sectors - count)
        covered = []
        for mi, msec, cnt in vol.pieces(sector, count):
            for lsec, off, n in vol.member_to_logical(mi, msec, cnt):
                covered.extend(range(lsec, lsec + n))
        assert sorted(covered) == list(range(sector, sector + count))


def test_stripe_extents_merge_adjacent_chunks():
    vol = _volume("stripe:2:chunk=16k")
    chunk = vol.chunk_sectors
    # Four chunks = two per member; each member's two chunks are adjacent
    # on the member, so the timed path issues one transfer per member.
    extents = vol.extents(0, 4 * chunk, write=False)
    assert len(extents) == 2
    assert sorted(mi for mi, _, _ in extents) == [0, 1]
    assert all(cnt == 2 * chunk for _, _, cnt in extents)


def test_concat_geometry_tiles_zones():
    geom = SystemConfig().geometry
    logical = concat_geometry(geom, 3)
    assert logical.total_sectors == 3 * geom.total_sectors
    assert len(logical.zones) == 3 * len(geom.zones)


# -- the logical store vs a reference model --------------------------------

@pytest.mark.parametrize("layout", ["concat:2", "stripe:2", "stripe:3:chunk=16k",
                                    "mirror:2"])
def test_volume_store_matches_reference_model(layout):
    vol = _volume(layout)
    store = vol.store
    model = DiskStore(store.total_sectors, store.sector_size)
    rng = random.Random(layout)
    for i in range(150):
        count = rng.randrange(1, 64)
        sector = rng.randrange(store.total_sectors - count)
        if rng.random() < 0.6:
            data = bytes([rng.randrange(256)]) * (count * store.sector_size)
            store.write(sector, data)
            model.write(sector, data)
        else:
            assert store.read(sector, count) == model.read(sector, count)
    assert store.digest() == model.digest()
    assert store.nonzero_sectors() == model.nonzero_sectors()
    # clone() flattens the logical bytes into one plain store.
    assert store.clone().digest() == model.digest()


def test_mirror_store_writes_all_members():
    vol = _volume("mirror:2")
    vol.store.write(10, b"\xaa" * 512)
    assert vol.members[0].store.read(10, 1) == b"\xaa" * 512
    assert vol.members[1].store.read(10, 1) == b"\xaa" * 512


# -- construction ----------------------------------------------------------

def test_default_layout_is_the_classic_stack():
    system = System.booted(SystemConfig())
    assert isinstance(system.volume, SingleVolume)
    # The kernel-facing objects ARE the member's objects (no wrappers):
    member = system.volume.members[0]
    assert system.store is member.store
    assert system.disk is member.disk
    assert system.driver is member.driver
    assert isinstance(system.store, DiskStore)


def test_build_volume_kinds():
    for layout, cls in (("concat:2", StripeVolume), ("stripe:2", StripeVolume),
                        ("mirror:2", MirrorVolume)):
        volume = _volume(layout)
        assert isinstance(volume, cls)
        assert volume.kind == layout.split(":")[0]
        assert volume.describe().startswith(layout)


def test_members_have_independent_stacks():
    vol = _volume("stripe:4")
    drivers = {id(m.driver) for m in vol.members}
    disks = {id(m.disk) for m in vol.members}
    scheds = {id(m.driver.queue.scheduler) for m in vol.members}
    assert len(drivers) == len(disks) == len(scheds) == 4


# -- end to end through the file system ------------------------------------

@pytest.mark.parametrize("layout", ["concat:2", "stripe:4", "mirror:2"])
def test_file_round_trip(layout):
    system = System.booted(SystemConfig(layout=layout))
    proc = Proc(system, name="t")
    payload = bytes(range(256)) * 512  # 128 KB

    def work():
        fd = yield from proc.creat("/f")
        yield from proc.write(fd, payload)
        yield from proc.fsync(fd)
        yield from proc.close(fd)
        fd = yield from proc.open("/f")
        data = b""
        while True:
            chunk = yield from proc.read(fd, 32 * KB)
            if not chunk:
                break
            data += chunk
        yield from proc.close(fd)
        return data

    assert system.run(work()) == payload


def test_stripe_spreads_data_over_members():
    system = System.booted(SystemConfig(layout="stripe:4"))
    proc = Proc(system, name="t")

    def work():
        fd = yield from proc.creat("/f")
        yield from proc.write(fd, b"\x5a" * (256 * KB))
        yield from proc.fsync(fd)
        yield from proc.close(fd)

    system.run(work())
    populated = [len(m.store.nonzero_sectors()) for m in system.volume.members]
    assert all(n > 0 for n in populated)


def test_flush_fans_out_to_every_member_cache():
    system = System.booted(SystemConfig(layout="stripe:2", write_cache=True))
    proc = Proc(system, name="t")

    def work():
        fd = yield from proc.creat("/f")
        yield from proc.write(fd, b"\xc3" * (128 * KB))
        yield from proc.fsync(fd)
        yield from proc.close(fd)

    system.run(work())
    for member in system.volume.members:
        assert member.write_cache is not None
        assert member.write_cache.entries == []
    assert system.volume.stats["flushes"] >= 1


def test_traced_read_issues_concurrent_member_io():
    """One 64 KB read over stripe:4:chunk=16k becomes four member
    transfers whose spans overlap in simulated time."""
    system = System.booted(SystemConfig(layout="stripe:4:chunk=16k"))
    proc = Proc(system, name="t")
    payload = bytes([7]) * (64 * KB)

    def put():
        fd = yield from proc.creat("/f")
        yield from proc.write(fd, payload)
        yield from proc.fsync(fd)
        yield from proc.close(fd)

    system.run(put())
    # Cold cache, then trace exactly the read.
    vn = system.run(system.mount.namei("/f"), name="lookup")
    for page in list(system.pagecache.vnode_pages(vn)):
        if not page.locked and not page.dirty:
            system.pagecache.destroy(page)
    vn.inode.readahead.reset()
    system.tracer.enabled = True

    def get():
        fd = yield from proc.open("/f")
        data = yield from proc.read(fd, 64 * KB)
        yield from proc.close(fd)
        return data

    assert system.run(get()) == payload
    system.tracer.enabled = False
    member_spans = [s for s in system.tracer.spans
                    if s.name.startswith("disk_io[m")]
    names = {s.name for s in member_spans}
    assert len(names) >= 2, f"expected multi-member I/O, saw {names}"
    # Concurrency: at least two member transfers overlap in simulated time.
    overlapping = any(
        a.begin < b.end and b.begin < a.end
        for i, a in enumerate(member_spans)
        for b in member_spans[i + 1:]
        if a.name != b.name and a.end is not None and b.end is not None)
    assert overlapping, "member I/Os never overlapped"


def test_single_layout_has_no_member_span_labels():
    system = System.booted(SystemConfig())
    proc = Proc(system, name="t")
    system.tracer.enabled = True

    def work():
        fd = yield from proc.creat("/f")
        yield from proc.write(fd, b"\x11" * (16 * KB))
        yield from proc.fsync(fd)
        yield from proc.close(fd)

    system.run(work())
    system.tracer.enabled = False
    assert not any(s.name.startswith("disk_io[")
                   for s in system.tracer.spans)
