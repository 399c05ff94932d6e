"""Sector-addressed backing store holding real bytes.

Sparse in 16-sector chunks — 8 KB, the UFS block and the VM page, so almost
every transfer is whole chunks at one dict operation each.  A chunk holding
any non-zero byte is one immutable ``bytes``; an all-zero chunk is never
stored, and unwritten space reads back as zeros (a fresh drive).  Whatever
describes the image — digest, non-zero population, diff — still speaks in
sectors.  This is the *data plane* of the disk model — timing lives in
:mod:`repro.disk.disk`.
"""

from __future__ import annotations

import hashlib
from typing import Iterator

from repro.units import SECTOR_SIZE

#: Sectors per stored chunk.
CHUNK_SECTORS = 16


class SectorImage:
    """What a disk image answers about itself sector by sector, all from the
    one walk a subclass provides (:meth:`iter_nonzero`), plus the argument
    checks every image shares."""

    total_sectors: int
    sector_size: int

    def iter_nonzero(self) -> "Iterator[tuple[int, bytes]]":
        """``(sector, bytes)`` of every sector holding non-zero data, in
        ascending sector order."""
        raise NotImplementedError

    def integrity_region(self):
        """The :class:`~repro.integrity.checksum.IntegrityRegion` this image
        carries, or None.  Its header is the device's last sector, so a
        blank one settles it: a plain machine never loads ``repro.integrity``."""
        if not any(self.read(self.total_sectors - 1, 1)):
            return None
        from repro.integrity.checksum import IntegrityRegion

        return IntegrityRegion.find(self)

    def _check_range(self, sector: int, count: int) -> None:
        if count <= 0:
            raise ValueError("sector count must be positive")
        if sector < 0 or sector + count > self.total_sectors:
            raise ValueError(
                f"sector range [{sector}, {sector + count}) outside device "
                f"of {self.total_sectors} sectors"
            )

    def _check_write(self, sector: int, data: bytes) -> None:
        if len(data) % self.sector_size != 0:
            raise ValueError(
                f"write length {len(data)} is not a multiple of sector size "
                f"{self.sector_size}"
            )
        self._check_range(sector, len(data) // self.sector_size)

    def digest(self) -> str:
        """Canonical content hash of the full image.

        Only non-zero sectors are hashed, each under its number, so two
        images hold the same bytes iff their digests match.  The crash-point
        explorer uses this to dedup equivalent crash states.
        """
        h = hashlib.sha256(f"{self.total_sectors}:{self.sector_size}".encode())
        for sector, data in self.iter_nonzero():
            h.update(b"|%d:" % sector)
            h.update(data)
        return h.hexdigest()

    def nonzero_sectors(self) -> "list[int]":
        """Sorted sector numbers currently holding non-zero data."""
        return [sector for sector, _ in self.iter_nonzero()]


class DiskStore(SectorImage):
    """A sparse array of fixed-size sectors."""

    def __init__(self, total_sectors: int, sector_size: int = SECTOR_SIZE):
        if total_sectors <= 0:
            raise ValueError("total_sectors must be positive")
        if sector_size <= 0:
            raise ValueError("sector_size must be positive")
        self.total_sectors = total_sectors
        self.sector_size = sector_size
        #: chunk index -> its bytes.  Every value is a full chunk — the last
        #: one too on a device that ends mid-chunk, where the range check
        #: keeps the tail zero — and none is all zeros.
        self._chunks: dict[int, bytes] = {}
        self._zero_chunk = bytes(CHUNK_SECTORS * sector_size)
        #: Bumped every time a System is built over this store.  Background
        #: daemons capture the epoch at start and stand down when it moves —
        #: a remount means the machine they were pacing no longer owns the
        #: bytes.
        self.attach_epoch = 0

    def read(self, sector: int, count: int) -> bytes:
        """Read ``count`` sectors starting at ``sector``."""
        self._check_range(sector, count)
        size = self.sector_size
        first, skip = divmod(sector, CHUNK_SECTORS)
        last, end = divmod(sector + count - 1, CHUNK_SECTORS)
        get = self._chunks.get
        zero = self._zero_chunk
        if first == last:
            # A whole chunk is the stored bytes themselves (or the one zero
            # chunk): readers share it, never a copy.
            return get(first, zero)[skip * size:(end + 1) * size]
        pieces = [get(index, zero) for index in range(first, last + 1)]
        # Trim the two ends before the join, never the joined bytes after.
        pieces[0] = pieces[0][skip * size:]
        pieces[-1] = pieces[-1][:(end + 1) * size]
        return b"".join(pieces)

    def write(self, sector: int, data: bytes) -> None:
        """Write whole sectors starting at ``sector``."""
        self._check_write(sector, data)
        if type(data) is not bytes:
            data = bytes(data)  # clones share chunks: they must be immutable
        chunks = self._chunks
        zero = self._zero_chunk
        nbytes, chunk_bytes = len(data), len(zero)
        index, skip = divmod(sector, CHUNK_SECTORS)
        offset = skip * self.sector_size
        pos = 0
        # A whole chunk is the caller's own bytes (a slice of all of a bytes
        # object is that object); a partial write rebuilds the one chunk it
        # touches.  Either way one memcmp against zeros, never a memoryview
        # compare, decides whether it is stored at all.
        while pos < nbytes:
            take = min(nbytes - pos, chunk_bytes - offset)
            piece = data[pos:pos + take]
            if take != chunk_bytes:
                old = chunks.get(index, zero)
                piece = old[:offset] + piece + old[offset + take:]
            if piece == zero:
                chunks.pop(index, None)
            else:
                chunks[index] = piece
            pos += take
            index += 1
            offset = 0

    def clone(self) -> "DiskStore":
        """An independent copy of the current bytes (a crash snapshot)."""
        dup = DiskStore(self.total_sectors, self.sector_size)
        dup._chunks = dict(self._chunks)
        return dup

    def iter_nonzero(self) -> "Iterator[tuple[int, bytes]]":
        size = self.sector_size
        zero = self._zero_chunk[:size]
        for index, chunk in sorted(self._chunks.items()):
            base = index * CHUNK_SECTORS
            for i in range(CHUNK_SECTORS):
                data = chunk[i * size:(i + 1) * size]
                if data != zero:
                    yield base + i, data

    def differing_sectors(self, other: "DiskStore") -> "list[int]":
        """Sorted sectors whose bytes differ between two same-size stores
        (what a mirror resync must copy)."""
        if (other.total_sectors != self.total_sectors
                or other.sector_size != self.sector_size):
            raise ValueError("stores differ in size; cannot diff")
        size = self.sector_size
        zero = self._zero_chunk
        mine, theirs = self._chunks, other._chunks
        out: list[int] = []
        for index in sorted(mine.keys() | theirs.keys()):
            a, b = mine.get(index, zero), theirs.get(index, zero)
            if a != b:
                out.extend(index * CHUNK_SECTORS + i
                           for i in range(CHUNK_SECTORS)
                           if a[i * size:(i + 1) * size]
                           != b[i * size:(i + 1) * size])
        return out
