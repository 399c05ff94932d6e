"""The buffer cache: the kernel's one ``bio`` (bread/bwrite/bdwrite/getblk).

File *data* goes through the unified page cache, but UFS metadata — inode
blocks, indirect blocks, directory blocks — still moves through a classic
fixed-size buffer cache, exactly as in SunOS 4.x, and the System V baseline
(:mod:`repro.s5fs`) keeps *everything* in it: "Older UNIX variants confined
I/O pages to a small buffer cache."  A fixed number of ``bsize`` buffers,
LRU replacement.  Reads are synchronous; writes are delayed by default
(marked dirty, flushed on sync/eviction) with ``bwrite`` available for the
synchronous updates UFS uses to keep the disk consistent and ``bowrite``
for the B_ORDER barrier write the paper proposes in their place.
Peacock's ``mbread``/``mbwrite`` move a run of physically consecutive
blocks in one request, each block in its own buffer.

What B_BUSY buys a real ``bio`` holds here too: a block has at most one
buffer (whoever wants a block somebody else is bringing in waits for that
buffer), and a block's asynchronous write has landed before the block is
written again or read back, so the disk queue cannot reorder the two.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Generator, Iterator, Sequence

from repro.disk.buf import Buf, BufOp
from repro.sim.events import Event
from repro.sim.stats import StatSet

if TYPE_CHECKING:  # pragma: no cover
    from repro.cpu import Cpu
    from repro.disk.driver import DiskDriver
    from repro.sim.engine import Engine


class MetaBuf:
    """One cached block.

    ``view`` is a decoded form of ``data`` left by whoever decoded it (a
    directory block's entries, :class:`repro.ufs.dir.DirView`); it carries
    the bytes it was decoded from and is trusted only while ``data`` still
    equals them, so no writer has to know it exists.
    """

    __slots__ = ("frag_addr", "data", "dirty", "view")

    def __init__(self, frag_addr: int, data: bytearray):
        self.frag_addr = frag_addr
        self.data = data
        self.dirty = False
        self.view: Any = None


class MetaCache:
    """LRU cache of ``bsize`` blocks, keyed by fragment address."""

    def __init__(self, engine: "Engine", driver: "DiskDriver", cpu: "Cpu",
                 bsize: int, frag_sectors: int, capacity: int = 64):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if bsize % (512 * frag_sectors):
            raise ValueError("bsize must be a whole number of fragments")
        self.engine = engine
        self.driver = driver
        self.cpu = cpu
        self.bsize = bsize
        self.frag_sectors = frag_sectors  # sectors per fragment
        #: Address distance between physically consecutive blocks.
        self.stride = bsize // (512 * frag_sectors)
        self.capacity = capacity
        self._bufs: OrderedDict[int, MetaBuf] = OrderedDict()
        #: Blocks somebody is bringing in -> the event that says they are.
        self._inflight: dict[int, Event] = {}
        #: Blocks with an asynchronous write on its way -> that write.
        self._writing: dict[int, Buf] = {}
        self.stats = StatSet("metacache")

    def peek(self, frag_addr: int) -> MetaBuf | None:
        """The cached buffer, if any: no I/O, no wait, no LRU effect."""
        return self._bufs.get(frag_addr)

    def buffers(self) -> Iterator[MetaBuf]:
        """Every cached buffer, least recently used first (no LRU effect)."""
        return iter(self._bufs.values())

    # -- read -----------------------------------------------------------------
    def bread(self, frag_addr: int) -> Generator[Any, Any, MetaBuf]:
        """Get the block at ``frag_addr`` (block aligned), reading it
        synchronously on a miss."""
        cached = self._bufs.get(frag_addr)
        if cached is None:
            cached = yield from self._await_inflight((frag_addr,))
        if cached is not None:
            self._bufs.move_to_end(frag_addr)
            self.stats.incr("hits")
            return cached
        self.stats.incr("misses")
        yield from self._fetch(frag_addr, 1)
        return self._bufs[frag_addr]

    def mbread(self, frag_addrs: list[int]
               ) -> Generator[Any, Any, list[MetaBuf]]:
        """Peacock's multi-block read: ``frag_addrs`` must be physically
        consecutive; one request covers everything from the first uncached
        block to the last."""
        self._check_run(frag_addrs, "mbread")
        if len(frag_addrs) > self.capacity:
            raise ValueError("mbread run is longer than the cache")
        while True:
            yield from self._await_inflight(frag_addrs)
            # Cached members become most recently used before anything is
            # brought in, so making room takes other blocks first.
            missing = []
            for frag_addr in frag_addrs:
                if frag_addr in self._bufs:
                    self._bufs.move_to_end(frag_addr)
                else:
                    missing.append(frag_addr)
            if not missing:
                return [self._bufs[a] for a in frag_addrs]
            span = (missing[-1] - missing[0]) // self.stride + 1
            yield from self._fetch(missing[0], span)
            self.stats.incr("mbreads")

    def getblk(self, frag_addr: int) -> Generator[Any, Any, MetaBuf]:
        """A buffer for the block without reading it: the cached one, else
        a zeroed one (for a caller about to overwrite the whole block)."""
        cached = yield from self._await_inflight((frag_addr,))
        if cached is not None:
            self._bufs.move_to_end(frag_addr)
            return cached
        return (yield from self._install(
            MetaBuf(frag_addr, bytearray(self.bsize))))

    def install_new(self, frag_addr: int, data: bytes | None = None
                    ) -> Generator[Any, Any, MetaBuf]:
        """Install a freshly *allocated* block without reading the disk
        (its previous contents are dead)."""
        if frag_addr in self._bufs:
            raise ValueError(f"block {frag_addr} already cached")
        meta = MetaBuf(frag_addr, bytearray(data) if data else bytearray(self.bsize))
        if len(meta.data) != self.bsize:
            raise ValueError("new metadata block must be exactly one block")
        return (yield from self._install(meta))

    # -- write ---------------------------------------------------------------------
    def bdwrite(self, meta: MetaBuf) -> None:
        """Delayed write: mark dirty; flushed on sync or eviction."""
        if self._bufs.get(meta.frag_addr) is not meta:
            raise ValueError("buffer is not in the cache")
        meta.dirty = True
        self.stats.incr("delayed_writes")

    def bwrite(self, meta: MetaBuf) -> Generator[Any, Any, None]:
        """Synchronous write (UFS consistency-critical updates)."""
        self.stats.incr("sync_writes")
        yield from self._push([meta], wait=True)

    def bawrite(self, meta: MetaBuf) -> Generator[Any, Any, None]:
        """Asynchronous write: start it, do not wait."""
        self.stats.incr("async_writes")
        yield from self._push([meta], wait=False)

    def bowrite(self, meta: MetaBuf) -> Generator[Any, Any, None]:
        """B_ORDER write: asynchronous, but nothing below may reorder it —
        the paper's proposed replacement for ``bwrite``."""
        yield from self._push([meta], wait=False, ordered=True)

    def mbwrite(self, metas: list[MetaBuf]) -> Generator[Any, Any, None]:
        """Write physically consecutive buffers as one asynchronous
        request; an empty run is a no-op."""
        if metas:
            self._check_run([m.frag_addr for m in metas], "mbwrite")
            self.stats.incr("mbwrites")
            yield from self._push(metas, wait=False)

    def drop(self, frag_addr: int) -> None:
        """Forget a block (freed by truncation); dirty contents are dead."""
        self._bufs.pop(frag_addr, None)

    def flush(self) -> Generator[Any, Any, int]:
        """Write all dirty buffers (synchronously); returns count flushed."""
        flushed = 0
        for meta in [m for m in self._bufs.values() if m.dirty]:
            yield from self._push([meta], wait=True)
            flushed += 1
        return flushed

    # -- internals ----------------------------------------------------------------------
    def _check_run(self, frag_addrs: list[int], what: str) -> None:
        if not frag_addrs:
            raise ValueError(f"{what} needs at least one block")
        for a, b in zip(frag_addrs, frag_addrs[1:]):
            if b != a + self.stride:
                raise ValueError(f"{what} blocks must be consecutive")

    def _await_inflight(self, frag_addrs: Sequence[int]
                        ) -> Generator[Any, Any, MetaBuf | None]:
        """Wait until nobody else is bringing any of the blocks in; returns
        the cached buffer of the first, or None if it is (still) absent.
        Nothing is yielded between the last check and the return, so the
        caller may claim the absent blocks itself."""
        inflight = self._inflight
        while True:
            pending = next((inflight[a] for a in frag_addrs if a in inflight),
                           None)
            if pending is None:
                return self._bufs.get(frag_addrs[0])
            self.stats.incr("inflight_waits")
            yield pending

    def _await_writes(self, frag_addrs: Sequence[int]
                      ) -> Generator[Any, Any, None]:
        """Wait until no asynchronous write of any of the blocks is still
        on its way to the disk."""
        for frag_addr in frag_addrs:
            while frag_addr in self._writing:
                yield self._writing[frag_addr].done

    def _fetch(self, first: int, count: int) -> Generator[Any, Any, None]:
        """Read ``count`` consecutive blocks from ``first`` in one request
        and cache those that are not cached already."""
        bsize, stride = self.bsize, self.stride
        absent = [a for a in range(first, first + count * stride, stride)
                  if a not in self._bufs]
        buf = Buf(self.engine, BufOp.READ, first * self.frag_sectors,
                  count * bsize // 512)
        with self._claimed(absent):
            if self._writing:
                yield from self._await_writes(absent)
            yield from self.cpu.work("driver", self.cpu.costs.driver_strategy)
            self.driver.strategy(buf)
            yield buf.done
            assert buf.data is not None
            for frag_addr in absent:
                lo = (frag_addr - first) // stride * bsize
                yield from self._insert(
                    MetaBuf(frag_addr, bytearray(buf.data[lo:lo + bsize])))

    def _install(self, meta: MetaBuf) -> Generator[Any, Any, MetaBuf]:
        with self._claimed([meta.frag_addr]):
            yield from self._insert(meta)
        return meta

    @contextmanager
    def _claimed(self, frag_addrs: list[int]) -> Iterator[None]:
        """Mark the blocks as being brought in: until the body is done,
        everyone else asking for one of them waits (``_await_inflight``)
        instead of making a second buffer for it."""
        ev = Event(self.engine, name=("bio@%d", frag_addrs[0]))
        self._inflight.update(dict.fromkeys(frag_addrs, ev))
        try:
            yield
        finally:
            for frag_addr in frag_addrs:
                del self._inflight[frag_addr]
            ev.succeed()

    def _insert(self, meta: MetaBuf) -> Generator[Any, Any, None]:
        """Cache ``meta`` (a block its caller has claimed), first making
        room: writing back a dirty victim blocks."""
        while len(self._bufs) >= self.capacity:
            victim_addr, victim = next(iter(self._bufs.items()))
            if victim.dirty:
                self.stats.incr("eviction_writebacks")
                yield from self._push([victim], wait=True)
            self._bufs.pop(victim_addr, None)
        self._bufs[meta.frag_addr] = meta

    def _push(self, metas: list[MetaBuf], wait: bool,
              ordered: bool = False) -> Generator[Any, Any, None]:
        frag_addrs = [m.frag_addr for m in metas]
        if self._writing and not ordered:
            yield from self._await_writes(frag_addrs)
        # A synchronous metadata write is only worth waiting for if it is
        # durable when it completes: force unit access past any volatile
        # write cache (the UFS consistency discipline assumes stable
        # storage, not a drive buffer).
        buf = Buf(self.engine, BufOp.WRITE, frag_addrs[0] * self.frag_sectors,
                  len(metas) * self.bsize // 512,
                  data=b"".join([m.data for m in metas]), async_=not wait,
                  ordered=ordered, fua=wait, owner=f"meta@{frag_addrs[0]}")
        for meta in metas:
            meta.dirty = False
        if not wait and not ordered:
            # B_ORDER writes keep their order below; a plain asynchronous
            # one is remembered until done, so that the next write or
            # re-read of its blocks can wait for it.
            self._writing.update(dict.fromkeys(frag_addrs, buf))
            buf.iodone.append(self._written)
        yield from self.cpu.work("driver", self.cpu.costs.driver_strategy)
        self.driver.strategy(buf)
        if wait:
            yield buf.done

    def _written(self, buf: Buf) -> None:
        first = buf.sector // self.frag_sectors
        for frag_addr in range(first, first + buf.nsectors // self.frag_sectors,
                               self.stride):
            if self._writing.get(frag_addr) is buf:  # not rewritten since
                del self._writing[frag_addr]
