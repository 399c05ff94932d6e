"""The volatile write cache: completed != durable.

The paper's footnote 5 rejects acknowledging writes from the drive's
buffer because it breaks the stable-storage promise.  This module models
the drive that does it anyway: a bounded FIFO of completed-but-volatile
writes that become durable only when

* a **FLUSH** command drains the cache to the media (``BufOp.FLUSH``),
* a **FUA** write bypasses it (``Buf.fua`` — force unit access), or
* capacity pressure destages the oldest entry to make room.

``ordered`` (B_ORDER) entries are barriers inside the cache too: the
drive may reorder destaging freely *within* the stretch between two
barriers, but never across one.  The crash-point explorer
(:mod:`repro.faults.crashpoints`) turns exactly that rule into the set of
legal crash states, from the journal the disk keeps of what this cache
does (:class:`repro.disk.disk.JournalEvent`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.sim.stats import StatSet

if TYPE_CHECKING:  # pragma: no cover
    from repro.disk.buf import Buf
    from repro.disk.store import DiskStore


class CacheEntry:
    """One completed-but-volatile write sitting in the cache."""

    __slots__ = ("seq", "sector", "nsectors", "data", "ordered", "owner",
                 "request", "integrity_owner")

    def __init__(self, seq: int, sector: int, nsectors: int, data: bytes,
                 ordered: bool, owner: str, request: "Any | None",
                 integrity_owner: "tuple[int, int] | None" = None):
        self.seq = seq
        self.sector = sector
        self.nsectors = nsectors
        self.data = data
        self.ordered = ordered
        self.owner = owner
        #: The logical request that issued the write (span attribution).
        self.request = request
        #: (inode, first logical block) for integrity-record attribution;
        #: carried to destage, where the checksums are stamped.
        self.integrity_owner = integrity_owner

    @property
    def nbytes(self) -> int:
        return len(self.data)

    @property
    def end_sector(self) -> int:
        return self.sector + self.nsectors

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = " O" if self.ordered else ""
        return (f"<CacheEntry#{self.seq} sec={self.sector}+{self.nsectors}"
                f"{flag} {self.owner!r}>")


class VolatileWriteCache:
    """A bounded FIFO of volatile writes in front of a :class:`DiskStore`.

    The disk mechanism owns the timing (destaging charges real media
    time) and the journal; this object owns the data plane: entry order
    and the read overlay.
    """

    def __init__(self, store: "DiskStore", limit_bytes: int,
                 sector_size: int = 512):
        if limit_bytes <= 0:
            raise ValueError("limit_bytes must be positive")
        self.store = store
        self.limit_bytes = limit_bytes
        self.sector_size = sector_size
        self.entries: list[CacheEntry] = []
        self.bytes = 0
        self.stats = StatSet("wcache")
        self._seq = 0

    def register_metrics(self, registry, ns: str) -> None:
        """Report the cache's counters into a MetricsRegistry at ``ns``."""
        registry.register(ns, self.stats)

    # -- write plane -------------------------------------------------------
    def write(self, buf: "Buf") -> CacheEntry:
        """Accept a completed (volatile) write into the cache."""
        assert buf.data is not None
        self._seq += 1
        entry = CacheEntry(self._seq, buf.sector, buf.nsectors,
                           bytes(buf.data), buf.ordered, buf.owner,
                           buf.request, buf.integrity_owner)
        self.entries.append(entry)
        self.bytes += entry.nbytes
        self.stats.incr("writes")
        self.stats.incr("cached_bytes", entry.nbytes)
        return entry

    @property
    def over_limit(self) -> bool:
        return self.bytes > self.limit_bytes

    def destage_head(self) -> CacheEntry:
        """Make the oldest entry durable (the data-plane half; the disk
        charges the media time before calling this)."""
        entry = self.entries.pop(0)
        self.bytes -= entry.nbytes
        self.store.write(entry.sector, entry.data)
        self.stats.incr("destages")
        return entry

    def note_fua(self) -> None:
        """Count a force-unit-access write that bypassed the cache."""
        self.stats.incr("fua_writes")

    def note_flush(self) -> None:
        """Count a finished FLUSH (the cache is drained)."""
        assert not self.entries
        self.stats.incr("flushes")

    def drop_all(self) -> int:
        """The drive died: the volatile contents are gone.  Returns bytes
        lost."""
        lost = self.bytes
        self.entries.clear()
        self.bytes = 0
        self.stats.incr("drops")
        self.stats.incr("dropped_bytes", lost)
        return lost

    # -- read plane --------------------------------------------------------
    def covers(self, sector: int, nsectors: int) -> bool:
        """True if any cached entry overlaps ``[sector, sector+nsectors)``
        — a read there returns (at least partly) volatile bytes."""
        lo, hi = sector, sector + nsectors
        return any(e.sector < hi and e.end_sector > lo for e in self.entries)

    def overlay(self, sector: int, nsectors: int, data: bytes) -> bytes:
        """``data`` (read from the store) with cached entries applied in
        order — what the drive must return for a read while writes sit in
        its buffer."""
        if not self.entries:
            return data
        lo, hi = sector, sector + nsectors
        ss = self.sector_size
        out: "bytearray | None" = None
        for entry in self.entries:
            if entry.end_sector <= lo or entry.sector >= hi:
                continue
            if out is None:
                out = bytearray(data)
            start = max(entry.sector, lo)
            end = min(entry.end_sector, hi)
            src = (start - entry.sector) * ss
            dst = (start - lo) * ss
            out[dst:dst + (end - start) * ss] = \
                entry.data[src:src + (end - start) * ss]
        if out is None:
            return data
        self.stats.incr("overlay_reads")
        return bytes(out)
