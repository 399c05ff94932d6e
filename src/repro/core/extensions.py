"""Future-work extensions sketched in the paper's final section.

* **Bmap cache** — "A small cache in the inode could reduce the cost of
  bmap substantially."  :class:`BmapCache` caches recent
  ``lbn -> (physical, contiguous length)`` translations as extent tuples,
  which also prototypes the "Extents vs blocks" idea (the in-memory half
  of it; the on-disk format, as the paper says, must not change).
* **Random clustering** and **B_ORDER** need no classes of their own: the
  former is a flag in :class:`repro.core.ClusterTuning` honoured by
  ``ufs_rdwr``, the latter a flag on :class:`repro.disk.Buf` honoured by
  the driver queue.
"""

from __future__ import annotations

from collections import OrderedDict


class BmapCache:
    """A small per-inode cache of bmap extents.

    Entries are ``(first_lbn, physical_frag, length_blocks)``.  A lookup for
    any lbn inside a cached extent computes the physical address by offset,
    so one entry serves a whole cluster's worth of translations — the
    "cache of extent tuples" variant the paper prefers.
    """

    #: Extents kept per inode, least recently used evicted.
    CAPACITY = 8

    def __init__(self):
        self._extents: OrderedDict[int, tuple[int, int]] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def lookup(self, lbn: int, frags_per_block: int) -> "tuple[int, int] | None":
        """Return (physical frag addr, remaining contiguous blocks) or None."""
        for first_lbn, (phys, length) in self._extents.items():
            if first_lbn <= lbn < first_lbn + length:
                delta = lbn - first_lbn
                self._extents.move_to_end(first_lbn)
                self.hits += 1
                return (phys + delta * frags_per_block, length - delta)
        self.misses += 1
        return None

    def insert(self, first_lbn: int, phys: int, length_blocks: int) -> None:
        """Remember one extent translation."""
        if length_blocks <= 0:
            raise ValueError("length_blocks must be positive")
        self._extents[first_lbn] = (phys, length_blocks)
        self._extents.move_to_end(first_lbn)
        while len(self._extents) > self.CAPACITY:
            self._extents.popitem(last=False)

    def invalidate(self) -> None:
        """Drop everything (block pointers changed: allocation/truncate)."""
        self._extents.clear()

    def __len__(self) -> int:
        return len(self._extents)
