"""``DiskStore`` against the representation it replaced.

The store keeps the image as a dict of immutable 8 KB chunks (16 sectors:
the UFS block, the VM page); ``RefStore`` below is the class it replaced —
one dict entry per 512-byte sector — verbatim from the last commit that had
it, living only here.  Generated sequences of writes (aligned with chunk
boundaries and straddling them; all-zero, partly zero and random; passed as
``bytes``, ``bytearray`` and ``memoryview``), reads, clones written to on
both sides and range / length errors must leave every observable equal on
both: ``read`` of every touched range, ``digest()``, ``nonzero_sectors()``,
``written_sectors`` and ``differing_sectors()`` in both directions against a
diverged clone.

Hand mutations that must each fail this file (run by hand, listed in
CHANGES.md): storing all-zero chunks, the partial-write splice off by one
sector, ``clone`` sharing the dict.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk import DiskStore
from repro.disk.store import CHUNK_SECTORS
from repro.units import SECTOR_SIZE


# -- the reference: one dict entry per sector -------------------------------------

class RefStore:
    """A sparse array of fixed-size sectors."""

    def __init__(self, total_sectors: int, sector_size: int = SECTOR_SIZE):
        if total_sectors <= 0:
            raise ValueError("total_sectors must be positive")
        if sector_size <= 0:
            raise ValueError("sector_size must be positive")
        self.total_sectors = total_sectors
        self.sector_size = sector_size
        self._sectors: dict[int, bytes] = {}
        self._zero = bytes(sector_size)
        #: Bumped every time a System is built over this store.  Background
        #: daemons capture the epoch at start and stand down when it moves —
        #: a remount means the machine they were pacing no longer owns the
        #: bytes.
        self.attach_epoch = 0

    def _check_range(self, sector: int, count: int) -> None:
        if count <= 0:
            raise ValueError("sector count must be positive")
        if sector < 0 or sector + count > self.total_sectors:
            raise ValueError(
                f"sector range [{sector}, {sector + count}) outside device "
                f"of {self.total_sectors} sectors"
            )

    def read(self, sector: int, count: int) -> bytes:
        """Read ``count`` sectors starting at ``sector``."""
        self._check_range(sector, count)
        sectors = self._sectors
        if not sectors:
            return bytes(count * self.sector_size)
        if count == 1:
            return sectors.get(sector, self._zero)
        get = sectors.get
        zero = self._zero
        return b"".join([get(s, zero) for s in range(sector, sector + count)])

    def write(self, sector: int, data: bytes) -> None:
        """Write whole sectors starting at ``sector``."""
        if len(data) % self.sector_size != 0:
            raise ValueError(
                f"write length {len(data)} is not a multiple of sector size "
                f"{self.sector_size}"
            )
        count = len(data) // self.sector_size
        self._check_range(sector, count)
        size = self.sector_size
        sectors = self._sectors
        zero = self._zero
        if count == 1:
            chunk = bytes(data)
            if chunk == zero:
                sectors.pop(sector, None)
            else:
                sectors[sector] = chunk
            return
        # Cluster-sized writes slice through a memoryview: the zero
        # compare costs no copy, and only stored sectors materialize.
        view = memoryview(data)
        for i in range(count):
            chunk = view[i * size:(i + 1) * size]
            if chunk == zero:
                sectors.pop(sector + i, None)
            else:
                sectors[sector + i] = chunk.tobytes()

    def clone(self) -> "RefStore":
        """An independent copy of the current bytes (a crash snapshot)."""
        dup = RefStore(self.total_sectors, self.sector_size)
        dup._sectors = dict(self._sectors)
        return dup

    def digest(self) -> str:
        """Canonical content hash of the full image.

        Zero sectors never appear in ``_sectors`` (``write`` pops them), so
        hashing the sorted sparse population is a canonical form: two stores
        hold the same bytes iff their digests match.  The crash-point
        explorer uses this to dedup equivalent crash states.
        """
        import hashlib

        h = hashlib.sha256()
        h.update(f"{self.total_sectors}:{self.sector_size}".encode())
        for sector in sorted(self._sectors):
            h.update(f"|{sector}:".encode())
            h.update(self._sectors[sector])
        return h.hexdigest()

    def nonzero_sectors(self) -> "list[int]":
        """Sorted sector numbers currently holding non-zero data."""
        return sorted(self._sectors)

    def differing_sectors(self, other: "RefStore") -> "list[int]":
        """Sorted sectors whose bytes differ between two same-size stores
        (what a mirror resync must copy)."""
        if (other.total_sectors != self.total_sectors
                or other.sector_size != self.sector_size):
            raise ValueError("stores differ in size; cannot diff")
        mine, theirs = self._sectors, other._sectors
        return sorted(s for s in mine.keys() | theirs.keys()
                      if mine.get(s) != theirs.get(s))

    @property
    def written_sectors(self) -> int:
        """Number of sectors holding non-zero data (sparse population)."""
        return len(self._sectors)


# -- generated sequences ------------------------------------------------------------

TOTALS = st.sampled_from([40 * CHUNK_SECTORS, 40 * CHUNK_SECTORS + 7])
#: Sector addresses: anywhere, and on / just off a chunk boundary — a few past
#: the largest device, so range errors come out of the same strategy.
SECTORS = st.one_of(
    st.integers(-1, 41 * CHUNK_SECTORS),
    st.builds(lambda chunk, off: chunk * CHUNK_SECTORS + off,
              st.integers(0, 41), st.sampled_from([-1, 0, 1])),
)
COUNTS = st.one_of(
    st.integers(1, 300),
    st.sampled_from([0, 1, 2, CHUNK_SECTORS - 1, CHUNK_SECTORS,
                     CHUNK_SECTORS + 1, 2 * CHUNK_SECTORS, 240]),
)
SIDES = st.sampled_from(["main", "clone"])
OPS = st.one_of(
    st.tuples(st.just("write"), SIDES, SECTORS, COUNTS,
              st.sampled_from(["zero", "partly", "random"]),
              st.integers(0, 2 ** 16),
              st.sampled_from([bytes, bytearray, memoryview])),
    st.tuples(st.just("ragged_write"), SIDES, SECTORS,
              st.sampled_from([1, SECTOR_SIZE - 1, SECTOR_SIZE + 1])),
    st.tuples(st.just("read"), SIDES, SECTORS, COUNTS),
    st.tuples(st.just("clone")),
)


def payload(kind, count, seed):
    """``count`` sectors: all zero, all non-zero, or a mix with zero sectors
    and sectors zero but for their last byte (a compare that stops early
    would take those for zero)."""
    rng = random.Random(seed)
    menu = {
        "zero": [bytes(SECTOR_SIZE)],
        "random": [b"\x01" * SECTOR_SIZE, None],
        "partly": [bytes(SECTOR_SIZE), bytes(SECTOR_SIZE), None,
                   bytes(SECTOR_SIZE - 1) + b"\x01", b"\x01" * SECTOR_SIZE],
    }[kind]
    sectors = [rng.choice(menu) for _ in range(count)]
    return b"".join(s if s is not None else rng.randbytes(SECTOR_SIZE)
                    for s in sectors)


def outcome(call):
    """What a call did: its value, or the fact that it raised ValueError."""
    try:
        return call()
    except ValueError:
        return ValueError


def assert_canonical(store):
    """The representation's own rule: full-size immutable chunks, none zero."""
    for chunk in store._chunks.values():
        assert type(chunk) is bytes and len(chunk) == len(store._zero_chunk)
        assert chunk != store._zero_chunk


def assert_same_image(store, ref):
    assert store.read(0, store.total_sectors) == ref.read(0, ref.total_sectors)
    assert store.digest() == ref.digest()
    assert store.nonzero_sectors() == ref.nonzero_sectors()
    assert store.written_sectors == ref.written_sectors
    assert_canonical(store)


@settings(max_examples=200, deadline=None)
@given(TOTALS, st.lists(OPS, max_size=25))
def test_generated_sequences_leave_both_stores_equal(total, ops):
    main = (DiskStore(total), RefStore(total))
    sides = {"main": main, "clone": tuple(s.clone() for s in main)}
    for op in ops:
        if op[0] == "clone":
            sides["clone"] = tuple(s.clone() for s in sides["main"])
            continue
        store, ref = sides[op[1]]
        if op[0] == "read":
            _, _, sector, count = op
            assert (outcome(lambda: store.read(sector, count))
                    == outcome(lambda: ref.read(sector, count)))
            continue
        if op[0] == "ragged_write":
            _, _, sector, nbytes = op
            datas = [b"\x01" * nbytes] * 2
        else:
            _, _, sector, count, kind, seed, wrap = op
            datas = [wrap(payload(kind, count, seed)) for _ in range(2)]
        results = [outcome(lambda: s.write(sector, d))
                   for s, d in zip((store, ref), datas)]
        assert results[0] == results[1]
        for data in datas:
            if type(data) is bytearray:
                data[:] = b"\xee" * len(data)  # the store kept its own copy
        if results[0] is None and datas[0]:
            count = len(datas[0]) // SECTOR_SIZE
            assert store.read(sector, count) == ref.read(sector, count)
    for store, ref in sides.values():
        assert_same_image(store, ref)
    (store, ref), (store2, ref2) = sides["main"], sides["clone"]
    assert store.differing_sectors(store2) == ref.differing_sectors(ref2)
    assert store2.differing_sectors(store) == ref2.differing_sectors(ref)


# -- hand cases ---------------------------------------------------------------------

def test_device_ending_mid_chunk_works_up_to_the_edge_and_not_past_it():
    total = 2 * CHUNK_SECTORS + 5
    store, ref = DiskStore(total), RefStore(total)
    tail = b"\x07" * (7 * SECTOR_SIZE)
    for s in (store, ref):
        s.write(total - 7, tail)          # straddles into the partial chunk
        s.write(total - 1, b"\x09" * SECTOR_SIZE)
    assert store.read(total - 7, 7) == tail[:-SECTOR_SIZE] + b"\x09" * SECTOR_SIZE
    assert len(store.read(0, total)) == total * SECTOR_SIZE
    assert_same_image(store, ref)
    for call in (lambda: store.read(total - 1, 2),
                 lambda: store.read(total, 1),
                 lambda: store.write(total, bytes(SECTOR_SIZE)),
                 lambda: store.write(total - 1, b"\x01" * (2 * SECTOR_SIZE))):
        with pytest.raises(ValueError, match="outside device"):
            call()
    assert_same_image(store, ref)         # a refused write wrote nothing


def test_zeros_over_data_free_the_chunk():
    store = DiskStore(4 * CHUNK_SECTORS)
    block = b"\x5a" * (CHUNK_SECTORS * SECTOR_SIZE)
    store.write(CHUNK_SECTORS, block)
    store.write(3 * CHUNK_SECTORS + 2, b"\x5a" * SECTOR_SIZE)
    assert store.written_sectors == CHUNK_SECTORS + 1
    assert len(store._chunks) == 2
    store.write(CHUNK_SECTORS, bytes(len(block)))                # whole chunk
    store.write(3 * CHUNK_SECTORS, bytes(4 * SECTOR_SIZE))       # partial
    assert store.written_sectors == 0
    assert store._chunks == {}
    assert store.digest() == DiskStore(4 * CHUNK_SECTORS).digest()


def test_a_one_block_write_of_bytes_is_stored_without_a_copy():
    store = DiskStore(4 * CHUNK_SECTORS)
    block = b"\x5a" * (CHUNK_SECTORS * SECTOR_SIZE)
    store.write(2 * CHUNK_SECTORS, block)
    assert store.read(2 * CHUNK_SECTORS, CHUNK_SECTORS) is block


def test_other_sector_sizes_chunk_by_sectors_not_bytes():
    store, ref = DiskStore(50, sector_size=256), RefStore(50, sector_size=256)
    data = bytes(range(256)) * 20
    for s in (store, ref):
        s.write(13, data)
        s.write(20, bytes(256 * 3))
    assert store.read(0, 50) == ref.read(0, 50)
    assert store.digest() == ref.digest()
    assert store.nonzero_sectors() == ref.nonzero_sectors()
    assert_canonical(store)
