"""The unified page cache: a fixed pool of frames, a name hash, a free list.

Allocation discipline (mirrors SunOS):

* ``lookup`` finds a named page; if it is on the free list it is *reclaimed*
  (cache hit on a free page — the caching effect the paper is careful to
  preserve for small files).
* ``allocate`` takes the oldest free frame, stripping its old identity if it
  had one.  When the free list is empty the caller must wait for memory
  (``wait_for_memory``), which nudges the pageout daemon.
* ``free`` puts a page at the tail of the free list *keeping its name*;
  ``free_front`` puts it at the head (used by free-behind: sequential I/O
  pages are unlikely to be reused, so they are the best candidates for
  immediate recycling).

Beside the global name hash every vnode's pages hang off a per-vnode index
(SunOS's ``v_pages`` list), so putpage, fsync, truncate and unlink walk one
file's pages instead of all of memory.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Generator

from repro.sim.events import Event
from repro.sim.resources import Signal
from repro.sim.stats import StatSet, TimeWeighted
from repro.units import KB
from repro.vm.page import Page

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine
    from repro.vfs.vnode import Vnode


class PageCache:
    """All of physical memory, managed as a cache of vnode pages."""

    def __init__(self, engine: "Engine", memory_bytes: int,
                 page_size: int = 8 * KB, reserved_pages: int = 0):
        if memory_bytes <= 0 or page_size <= 0:
            raise ValueError("memory and page size must be positive")
        if memory_bytes % page_size != 0:
            raise ValueError("memory size must be a multiple of the page size")
        self.engine = engine
        self.page_size = page_size
        total = memory_bytes // page_size
        if reserved_pages < 0 or reserved_pages >= total:
            raise ValueError("reserved_pages must be in [0, total)")
        #: Frames usable by the page cache (kernel + process memory removed).
        self.total_pages = total - reserved_pages
        self.frames: list[Page] = [
            Page(engine, frame, page_size) for frame in range(self.total_pages)
        ]
        self._hash: dict[tuple[int, int], Page] = {}
        #: ``vnode_id -> {offset -> Page}``: the same pages as ``_hash``,
        #: grouped by vnode.  A vnode with no cached page has no entry.
        self._vpages: dict[int, dict[int, Page]] = {}
        # Free list keyed by frame number; ordered oldest-freed first.
        self._freelist: OrderedDict[int, Page] = OrderedDict(
            (p.frame, p) for p in self.frames
        )
        self.memory_wanted = Signal(engine, name="memwait")
        self.low_memory = Signal(engine, name="lowmem")
        #: Free-page threshold below which low_memory fires (the pageout
        #: daemon sets this to its lotsfree).
        self.low_water = 0
        self.stats = StatSet("pagecache")
        self.freemem_track = TimeWeighted(engine, self.total_pages)

    def register_metrics(self, registry) -> None:
        """Report the VM instruments into a system MetricsRegistry."""
        registry.register("vm.pagecache", self.stats)
        registry.register("vm.freemem", self.freemem_track)

    # -- inspection -----------------------------------------------------------
    @property
    def freemem(self) -> int:
        """Number of frames on the free list."""
        return len(self._freelist)

    @property
    def frames_backed(self) -> int:
        """Frames ever named, so holding a buffer: a memory cost only tests
        read yet (``tests/kernel/test_remount_reset.py``)."""
        return sum(p.data is not None for p in self.frames)

    def _key(self, vnode: "Vnode", offset: int) -> tuple[int, int]:
        return (vnode.vnode_id, offset)

    def _unindex(self, page: Page) -> None:
        """Drop a named page from the hash and from its vnode's index."""
        vid = page.vnode.vnode_id
        del self._hash[vid, page.offset]
        pages = self._vpages[vid]
        del pages[page.offset]
        if not pages:
            del self._vpages[vid]

    # -- lookup / reclaim --------------------------------------------------------
    def lookup(self, vnode: "Vnode", offset: int) -> Page | None:
        """Find the page caching ``<vnode, offset>``, reclaiming if free."""
        page = self._hash.get(self._key(vnode, offset))
        if page is None:
            self.stats.incr("misses")
            return None
        if page.free:
            # Reclaim from the free list: the frame still held our data.
            del self._freelist[page.frame]
            page.free = False
            self.freemem_track.set(self.freemem)
            self.stats.incr("reclaims")
            if self.freemem < self.low_water:
                self.low_memory.fire()
        self.stats.incr("hits")
        return page

    # -- allocation -----------------------------------------------------------------
    def allocate(self, vnode: "Vnode", offset: int) -> Page | None:
        """Take a free frame and name it ``<vnode, offset>``, locked.

        Returns None when no memory is free — the caller should
        ``yield from wait_for_memory()`` and retry.  The named page must not
        already be cached (callers look up first).
        """
        key = self._key(vnode, offset)
        if key in self._hash:
            raise RuntimeError(f"page {key} already cached; lookup() first")
        if not self._freelist:
            self.stats.incr("allocation_shortfalls")
            return None
        _, page = self._freelist.popitem(last=False)
        page.free = False
        if page.named:
            # Steal the oldest free frame from whatever it used to cache.
            self._unindex(page)
            page.unname()
            self.stats.incr("identity_steals")
        page.name(vnode, offset)
        page.lock()
        self._hash[key] = page
        self._vpages.setdefault(vnode.vnode_id, {})[offset] = page
        self.stats.incr("allocations")
        self.freemem_track.set(self.freemem)
        if self.freemem < self.low_water:
            self.low_memory.fire()
        return page

    def wait_for_memory(self, req: "Any | None" = None
                        ) -> Generator[Event, Any, None]:
        """Block until a frame is freed; pokes the low-memory signal.

        ``req`` is the optional I/O request on whose behalf we are waiting;
        when tracing, the stall shows up as a ``mem_wait`` span in its tree.
        """
        self.stats.incr("memory_waits")
        span = req.begin("mem_wait", freemem=self.freemem) if req is not None else None
        try:
            self.low_memory.fire()
            yield self.memory_wanted.wait()
        finally:
            # The wait can be torn down by an interrupt or a failing event;
            # the span must close on every exit or the request leaks it.
            if req is not None:
                req.end(span)

    # -- freeing ----------------------------------------------------------------------
    def free(self, page: Page, front: bool = False) -> None:
        """Return a frame to the free list (keeping its identity).

        ``front=True`` queues it for immediate reuse (free-behind), because
        sequentially-read pages are the least likely to be referenced again.
        """
        if page.free:
            raise RuntimeError(f"frame {page.frame} already free")
        if page.locked:
            raise RuntimeError(f"cannot free locked frame {page.frame}")
        if page.dirty:
            raise RuntimeError(f"cannot free dirty frame {page.frame}; clean it first")
        page.free = True
        page.referenced = False
        if front:
            self._freelist[page.frame] = page
            self._freelist.move_to_end(page.frame, last=False)
            self.stats.incr("freed_front")
        else:
            self._freelist[page.frame] = page
            self.stats.incr("freed")
        self.freemem_track.set(self.freemem)
        self.memory_wanted.fire()

    def destroy(self, page: Page) -> None:
        """Strip identity and free the frame (file truncation/unlink)."""
        if page.locked:
            raise RuntimeError(f"cannot destroy locked frame {page.frame}")
        if page.named and self._hash.get(self._key(page.vnode, page.offset)) is page:
            self._unindex(page)
        was_free = page.free
        page.unname()
        page.dirty = False
        if not was_free:
            page.free = True
            self._freelist[page.frame] = page
            self.freemem_track.set(self.freemem)
            self.memory_wanted.fire()
        self.stats.incr("destroyed")

    # -- per-vnode operations -------------------------------------------------------------
    def _sorted_pages(self, vnode_id: int) -> list[Page]:
        pages = self._vpages.get(vnode_id)
        if pages is None:
            return []
        return [pages[offset] for offset in sorted(pages)]

    def vnode_pages(self, vnode: "Vnode") -> list[Page]:
        """All cached pages of ``vnode``, sorted by offset.

        A fresh list: callers destroy pages while iterating over it.
        """
        return self._sorted_pages(vnode.vnode_id)

    def vnode_range(self, vnode: "Vnode", start: int, end: int) -> list[Page]:
        """Cached pages of ``vnode`` with ``start <= offset < end``, sorted
        by offset (a fresh list, like :meth:`vnode_pages`)."""
        pages = self._vpages.get(vnode.vnode_id)
        if pages is None:
            return []
        psize = self.page_size
        if (end - start) // psize < len(pages):
            # A window shorter than the file: probe it, don't sort the file.
            first = -(-start // psize) * psize
            return [pages[offset] for offset in range(first, end, psize)
                    if offset in pages]
        return [pages[offset] for offset in sorted(pages)
                if start <= offset < end]

    def vnode_invalidate(self, vnode: "Vnode") -> int:
        """Destroy every (unlocked) page of a vnode; returns count destroyed.

        Used on unlink — the paper notes removing backing store is one of
        only two ways pages leave the system.
        """
        count = 0
        for page in self.vnode_pages(vnode):
            if page.locked:
                raise RuntimeError("invalidate with locked pages in flight")
            self.destroy(page)
            count += 1
        return count

    def vnode_drop_clean(self, vnode: "Vnode") -> int:
        """Destroy a vnode's clean, unlocked pages; returns count destroyed.

        The stand-in for a remount between benchmark phases: the next read
        of the file comes from the disk.  Dirty and in-flight pages stay.
        """
        count = 0
        for page in self.vnode_pages(vnode):
            if not page.locked and not page.dirty:
                self.destroy(page)
                count += 1
        return count

    def dirty_pages(self, vnode: "Vnode" | None = None) -> list[Page]:
        """Dirty pages (of one vnode, or all), sorted by (vnode, offset)."""
        vnode_ids = sorted(self._vpages) if vnode is None else (vnode.vnode_id,)
        return [p for vid in vnode_ids for p in self._sorted_pages(vid)
                if p.dirty]
