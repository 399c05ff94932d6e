"""Self-describing per-fragment integrity records and their on-disk home.

Production block stacks treat the disk's "success" as a claim, not a
fact: bit rot, misdirected writes, and lost writes all *succeed* at the
interface.  This module gives every fragment a 28-byte record

    ``(crc32, self_frag, generation, owner_ino, owner_lbn, flags)``

stored in an **integrity region** carved from the tail of the device by
``mkfs``/``tunefs``:

    ``[... data area ...][record table][cg header replicas][sb replica][header]``

The record is *self-describing*: it names the fragment address it was
computed for, so a write that lands at the wrong LBA is caught even when
the payload's CRC is intact (``reason="address"``).  The generation
counts restamps; generation 0 means "never written", which keeps holes
and never-used fragments free of false positives.  The owner fields
(inode, logical block, offset-in-block) let the repair ladder find a
clean copy in the page cache without walking block pointers.

Replica slots mirror the superblock and every cylinder-group header
block; they are refreshed automatically whenever those fragments are
restamped, so ``sync()``'s ordinary metadata writes keep them current.

Everything here is pure data plane — timing (the per-fragment checksum
CPU charge) lives in the disk driver.
"""

from __future__ import annotations

import struct
import zlib
from typing import TYPE_CHECKING, Iterable, NamedTuple

from repro.errors import InvalidArgumentError
from repro.sim.stats import StatSet
from repro.ufs.ondisk import Superblock
from repro.units import SECTOR_SIZE

if TYPE_CHECKING:  # pragma: no cover
    from repro.disk.store import DiskStore
    from repro.disk.wcache import VolatileWriteCache

#: Header magic for the integrity region (SUPERBLOCK_MAGIC is 0x011954).
INTEGRITY_MAGIC = 0x011957
INTEGRITY_VERSION = 1

#: crc32, self_frag, generation, owner_ino, owner_lbn, flags.
RECORD_FMT = "<IIQIII"
_RECORD = struct.Struct(RECORD_FMT)
RECORD_SIZE = _RECORD.size
#: A cached table page: the shortest run of sectors no record straddles out of.
PAGE_SECTORS = 7
PAGE_RECORDS = PAGE_SECTORS * SECTOR_SIZE // RECORD_SIZE

#: magic, version, nfrags, frag_sectors, frags_per_block, ncg,
#: table_sector, cg_replica_sector, sb_replica_sector, generation.
HEADER_FMT = "<IIIIIIIIIQ"

#: Scrub found this fragment unrepairable; reads still fail, but the
#: sanitizer and subsequent scrub passes skip it until a rewrite clears it.
FLAG_BAD = 0x1
#: Bits 8+ hold the fragment's offset within its logical block.
_OFF_SHIFT = 8


class Record(NamedTuple):
    """One fragment's integrity record, decoded."""

    crc: int
    self_frag: int
    gen: int
    owner_ino: int
    owner_lbn: int
    flags: int

    @property
    def bad(self) -> bool:
        return bool(self.flags & FLAG_BAD)

    @property
    def off(self) -> int:
        """The fragment's offset (in fragments) within its logical block."""
        return self.flags >> _OFF_SHIFT


class IntegrityRegion:
    """The on-disk record table + metadata replicas, cached in memory.

    A table page is read from the store when one of its records is first
    touched, and written through in whole sectors on every stamp batch: a
    crash snapshot (``clone``) always carries a consistent table.
    """

    def __init__(self, store: "DiskStore", sb: Superblock,
                 table_sector: int, cg_replica_sector: int,
                 sb_replica_sector: int, header_sector: int,
                 generation: int = 0):
        self.store = store
        self.sb = sb
        self.nfrags = sb.total_frags
        self.fsize = sb.fsize
        self.frag_sectors = sb.fsize // SECTOR_SIZE
        self.block_sectors = sb.bsize // SECTOR_SIZE
        self.frags_per_block = sb.frags_per_block
        self.table_sector = table_sector
        self.cg_replica_sector = cg_replica_sector
        self.sb_replica_sector = sb_replica_sector
        self.header_sector = header_sector
        self.generation = generation
        self.table_sectors = self.table_sectors_for(self.nfrags)
        self._pages: dict[int, bytearray] = {}
        self.stats = StatSet("integrity")
        # Fragment -> replica slot sector, for the sb block and every cg
        # header block: restamping one of these fragments refreshes its
        # mirror for free.
        self._replica_slots: dict[int, int] = {}
        self._frag_kind: dict[int, str] = {}
        sb_frag = sb.frags_per_block  # the superblock lives in block 1
        for i in range(sb.frags_per_block):
            frag = sb_frag + i
            self._replica_slots[frag] = sb_replica_sector + i * self.frag_sectors
            self._frag_kind[frag] = "sb"
        for cgx in range(sb.ncg):
            base = sb.cg_header_frag(cgx)
            slot = cg_replica_sector + cgx * self.block_sectors
            for i in range(sb.frags_per_block):
                self._replica_slots[base + i] = slot + i * self.frag_sectors
                self._frag_kind[base + i] = "cg"

    # -- layout ------------------------------------------------------------
    @staticmethod
    def table_sectors_for(nfrags: int) -> int:
        return -(-nfrags * RECORD_SIZE // SECTOR_SIZE)

    @classmethod
    def sectors_needed(cls, nfrags: int, ncg: int, bsize: int) -> int:
        """Device-tail sectors the region needs for ``nfrags`` fragments."""
        bs = bsize // SECTOR_SIZE
        return cls.table_sectors_for(nfrags) + (ncg + 1) * bs + 1

    @classmethod
    def create(cls, store: "DiskStore", sb: Superblock) -> "IntegrityRegion":
        """Lay out a fresh region in the device tail, past the data area.

        The replicas are seeded from the current on-disk superblock and
        cg headers; the record table starts all-zero (nothing stamped).
        """
        total = store.total_sectors
        needed = cls.sectors_needed(sb.total_frags, sb.ncg, sb.bsize)
        start = total - needed
        if start < sb.total_frags * (sb.fsize // SECTOR_SIZE):
            raise InvalidArgumentError(
                f"no room for integrity region: needs {needed} sectors past "
                f"the data area, device has "
                f"{total - sb.total_frags * (sb.fsize // SECTOR_SIZE)}"
            )
        table_sector = start
        table_sectors = cls.table_sectors_for(sb.total_frags)
        cg_replica_sector = table_sector + table_sectors
        bs = sb.bsize // SECTOR_SIZE
        sb_replica_sector = cg_replica_sector + sb.ncg * bs
        header_sector = total - 1
        fs = sb.fsize // SECTOR_SIZE
        # Clear any stale table bytes (tunefs re-enable over old slack).
        for sector in store.nonzero_sectors():
            if table_sector <= sector < cg_replica_sector:
                store.write(sector, bytes(SECTOR_SIZE))
        store.write(sb_replica_sector,
                    store.read(sb.frags_per_block * fs, bs))
        for cgx in range(sb.ncg):
            store.write(cg_replica_sector + cgx * bs,
                        store.read(sb.cg_header_frag(cgx) * fs, bs))
        region = cls(store, sb, table_sector, cg_replica_sector,
                     sb_replica_sector, header_sector)
        region._write_header()
        return region

    @classmethod
    def find(cls, store: "DiskStore") -> "IntegrityRegion | None":
        """Attach to an existing region, or None if the device has none."""
        raw = store.read(store.total_sectors - 1, 1)
        (magic, version, nfrags, frag_sectors, frags_per_block, ncg,
         table_sector, cg_replica_sector, sb_replica_sector,
         generation) = struct.unpack_from(HEADER_FMT, raw)
        if magic != INTEGRITY_MAGIC or version != INTEGRITY_VERSION:
            return None
        bs = frags_per_block * frag_sectors
        sb = Superblock.unpack(store.read(sb_replica_sector, bs))
        return cls(store, sb, table_sector, cg_replica_sector,
                   sb_replica_sector, store.total_sectors - 1, generation)

    def erase(self) -> None:
        """Clear the header magic: the region is forgotten (tunefs)."""
        self.store.write(self.header_sector, bytes(SECTOR_SIZE))

    def _write_header(self) -> None:
        head = struct.pack(
            HEADER_FMT, INTEGRITY_MAGIC, INTEGRITY_VERSION, self.nfrags,
            self.frag_sectors, self.frags_per_block, self.sb.ncg,
            self.table_sector, self.cg_replica_sector,
            self.sb_replica_sector, self.generation,
        )
        self.store.write(self.header_sector, head.ljust(SECTOR_SIZE, b"\x00"))

    # -- records -----------------------------------------------------------
    @property
    def pages_loaded(self) -> int:
        """Number of table pages read from the store since attach."""
        return len(self._pages)

    def _load(self, index: int) -> bytearray:
        """Read table page ``index`` from the store into the cache."""
        first = index * PAGE_SECTORS
        page = self._pages[index] = bytearray(self.store.read(
            self.table_sector + first,
            min(PAGE_SECTORS, self.table_sectors - first)))
        return page

    def record(self, frag: int) -> Record:
        index, slot = divmod(frag, PAGE_RECORDS)
        page = self._pages.get(index) or self._load(index)
        return Record(*_RECORD.unpack_from(page, slot * RECORD_SIZE))

    def _put(self, frag: int, rec: Record) -> None:
        index, slot = divmod(frag, PAGE_RECORDS)
        page = self._pages.get(index) or self._load(index)
        _RECORD.pack_into(page, slot * RECORD_SIZE, rec.crc, rec.self_frag,
                          rec.gen, rec.owner_ino, rec.owner_lbn, rec.flags)

    def _flush(self, frags: Iterable[int]) -> None:
        """Write through every table sector the records of ``frags`` cover —
        both, for the one record in 21 that straddles a boundary."""
        dirty = {byte // SECTOR_SIZE for frag in frags
                 for byte in (frag * RECORD_SIZE, (frag + 1) * RECORD_SIZE - 1)}
        for ts in sorted(dirty):
            index, sector = divmod(ts, PAGE_SECTORS)
            start = sector * SECTOR_SIZE
            self.store.write(self.table_sector + ts, bytes(
                self._pages[index][start:start + SECTOR_SIZE]))
        self.generation += 1
        self._write_header()

    def frag_kind(self, frag: int) -> str:
        """``"sb"``, ``"cg"``, or ``"data"`` — picks the repair source."""
        return self._frag_kind.get(frag, "data")

    def stamped_frags(self) -> "list[int]":
        """All fragments with a live record (generation > 0), sorted."""
        # Write-through: a page the store holds no bytes for has no live record.
        lo = self.table_sector
        pages = sorted({(sector - lo) // PAGE_SECTORS
                        for sector in self.store.nonzero_sectors()
                        if lo <= sector < lo + self.table_sectors})
        return [frag for page in pages
                for frag in range(page * PAGE_RECORDS,
                                  min((page + 1) * PAGE_RECORDS, self.nfrags))
                if self.record(frag).gen]

    # -- stamping (write path) ---------------------------------------------
    def _stamp_one(self, frag: int, chunk: bytes,
                   owner: "tuple[int, int, int] | None") -> None:
        old = self.record(frag)
        if owner is not None:
            ino, lbn, off = owner
        elif old.gen > 0:
            # An owner-less rewrite (fsck, scrub repair, metadata) keeps
            # the existing attribution.
            ino, lbn, off = old.owner_ino, old.owner_lbn, old.off
        else:
            ino, lbn, off = 0, 0, 0
        rec = Record(zlib.crc32(chunk), frag, old.gen + 1, ino, lbn,
                     off << _OFF_SHIFT)  # any restamp clears FLAG_BAD
        self._put(frag, rec)
        slot = self._replica_slots.get(frag)
        if slot is not None:
            self.store.write(slot, chunk)
            self.stats.incr("replica_refreshes")

    def stamp_range(self, sector: int, data: bytes,
                    owner: "tuple[int, int] | None" = None) -> int:
        """Stamp every whole fragment a write of ``data`` at ``sector``
        covers; returns how many were stamped.

        ``owner`` is ``(inode, first_lbn)`` of the issuing file write;
        the per-fragment logical block and offset follow from the index
        within the run (ufs writes are physically contiguous runs of
        whole blocks plus at most one trailing fragment run).
        """
        fs = self.frag_sectors
        nsectors = len(data) // SECTOR_SIZE
        first = -(-sector // fs)
        last = (sector + nsectors) // fs
        stamped = 0
        aligned = sector % fs == 0
        for frag in range(first, min(last, self.nfrags)):
            off_bytes = (frag * fs - sector) * SECTOR_SIZE
            chunk = bytes(data[off_bytes:off_bytes + self.fsize])
            frag_owner = None
            if owner is not None and aligned:
                idx = frag - sector // fs
                frag_owner = (owner[0],
                              owner[1] + idx // self.frags_per_block,
                              idx % self.frags_per_block)
            self._stamp_one(frag, chunk, frag_owner)
            stamped += 1
        if stamped:
            self.stats.incr("stamps", stamped)
            self._flush(range(first, first + stamped))
        return stamped

    def stamp_all(self) -> int:
        """Stamp every fragment holding non-zero data (mkfs/tunefs)."""
        fs = self.frag_sectors
        data_sectors = self.nfrags * fs
        frags = sorted({s // fs for s in self.store.nonzero_sectors()
                        if s < data_sectors})
        for frag in frags:
            chunk = self.store.read(frag * fs, fs)
            self._stamp_one(frag, chunk, None)
        if frags:
            self.stats.incr("stamps", len(frags))
            self._flush(frags)
        return len(frags)

    def mark_bad(self, frag: int) -> None:
        """Scrub gave up on this fragment: remember that, so the
        sanitizer and later passes don't re-report it.  Any full rewrite
        of the fragment clears the flag (rehabilitation)."""
        rec = self.record(frag)
        self._put(frag, Record(rec.crc, rec.self_frag, rec.gen,
                               rec.owner_ino, rec.owner_lbn,
                               rec.flags | FLAG_BAD))
        self.stats.incr("marked_bad")
        self._flush((frag,))

    def forge_misdirect(self, frag: int, data: bytes) -> None:
        """Model the record stream of a misdirected write: ``data`` (now
        sitting at ``frag``) carries a *valid* CRC, but the
        self-describing address names a different fragment — only the
        address check can catch it.  Fault-injection helper."""
        rec = self.record(frag)
        wrong = (frag + 1) % self.nfrags
        self._put(frag, Record(zlib.crc32(data), wrong, max(rec.gen, 1),
                               rec.owner_ino, rec.owner_lbn,
                               rec.flags & ~FLAG_BAD))
        self._flush((frag,))

    # -- verification (read path) ------------------------------------------
    def verify_range(self, sector: int, data: bytes,
                     cache: "VolatileWriteCache | None" = None,
                     ) -> "list[tuple[int, str]]":
        """Check ``data`` (as read from ``sector``) against the table.

        Returns ``(frag, reason)`` for every fully-covered fragment that
        disagrees — ``reason`` is ``"address"`` (the record describes a
        different fragment: a misdirected write) or ``"crc"``.  Skipped:
        fragments never stamped (generation 0), fragments past the data
        area, and fragments any volatile write-cache entry overlaps
        (the read returned fresh overlay bytes the table hasn't seen —
        they are stamped at destage).
        """
        fs = self.frag_sectors
        nsectors = len(data) // SECTOR_SIZE
        first = -(-sector // fs)
        last = (sector + nsectors) // fs
        bad: list[tuple[int, str]] = []
        for frag in range(first, min(last, self.nfrags)):
            rec = self.record(frag)
            if rec.gen == 0:
                continue
            if cache is not None and cache.covers(frag * fs, fs):
                continue
            off = (frag * fs - sector) * SECTOR_SIZE
            chunk = bytes(data[off:off + self.fsize])
            if rec.self_frag != frag:
                bad.append((frag, "address"))
            elif zlib.crc32(chunk) != rec.crc:
                bad.append((frag, "crc"))
        if bad:
            self.stats.incr("verify_failures", len(bad))
        return bad

    # -- replicas (repair sources) -----------------------------------------
    def sb_replica(self) -> bytes:
        """The mirrored superblock block."""
        return self.store.read(self.sb_replica_sector, self.block_sectors)

    def cg_replica(self, cgx: int) -> bytes:
        """The mirrored header block of cylinder group ``cgx``."""
        if not 0 <= cgx < self.sb.ncg:
            raise ValueError(f"cylinder group {cgx} out of range")
        return self.store.read(self.cg_replica_sector + cgx * self.block_sectors,
                               self.block_sectors)

    def replica_frag(self, frag: int) -> "bytes | None":
        """The mirrored bytes of one sb/cg-header fragment, or None."""
        slot = self._replica_slots.get(frag)
        if slot is None:
            return None
        return self.store.read(slot, self.frag_sectors)
