"""ufs_getpage / ufs_putpage / ufs_rdwr: the paper's modified code paths.

Read side (figure 2 / figure 6): ``ufs_getpage`` looks the page up, calls
``bmap`` (which now also returns a contiguous length), reads a whole
*cluster* synchronously on a miss, and — when the sequential heuristics say
so — starts the next cluster's read-ahead asynchronously.

Write side (figures 7/8): ``ufs_putpage`` on the delayed path lies until a
cluster accumulates, then pushes the whole range, splitting on bmap
contiguity (the ``while (more pages)`` loop).  The per-file write throttle
is charged as clusters are queued and credited from the completion
interrupt.

``ufs_rdwr`` maps each file block, faults it in via getpage, copies, and on
unmap triggers delayed putpage (writes) or free-behind (large sequential
reads under memory pressure).

Every entry point accepts an optional :class:`~repro.sim.request.IORequest`
(``req``), the context opened at the syscall boundary.  When present, each
layer opens a child span (getpage → cluster_read → biowait, putpage →
cluster_write → throttle_wait) and tags the bufs it issues, so a completed
request renders as one tree from syscall to rotational service.  With
``req=None`` (internal callers, tests) the only cost is a None check.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from repro.disk.buf import Buf, BufOp
from repro.errors import DiskError, InvalidArgumentError, ReproError
from repro.sim.events import EventFailed
from repro.ufs import bmap
from repro.vfs.vnode import PutFlags, RW

#: Largest file the "data in the inode" future-work extension will cache
#: (the paper: "many files are small, less than 2KB").
INLINE_DATA_MAX = 2048

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.request import IORequest
    from repro.ufs.vnode import UfsVnode
    from repro.vm.page import Page


def _await_buf(buf: "Buf", req: "IORequest | None" = None
               ) -> Generator[Any, Any, None]:
    """biowait: wait for a buf, unwrapping the engine's ``EventFailed``
    envelope so callers see the original :class:`DiskError`."""
    span = req.begin("biowait", buf=buf.id) if req is not None else None
    try:
        yield buf.done
    except EventFailed as failure:
        cause = failure.args[0] if failure.args else failure
        raise cause from None
    finally:
        if req is not None:
            req.end(span)


# ---------------------------------------------------------------------------
# getpage
# ---------------------------------------------------------------------------

def ufs_getpage(vn: "UfsVnode", offset: int, rw: RW = RW.READ,
                req: "IORequest | None" = None
                ) -> Generator[Any, Any, "Page"]:
    """Return the page at ``offset``, reading (a cluster) if necessary."""
    mount = vn.mount
    ip = vn.inode
    pc = mount.pagecache
    cpu = mount.cpu
    psize = pc.page_size
    tuning = mount.tuning
    trace = mount.trace
    if offset % psize:
        raise InvalidArgumentError(f"offset {offset} not page aligned")
    span = req.begin("getpage", offset=offset) if req is not None else None
    try:
        # Find the page; if an I/O (read-ahead) is in flight, wait for it.
        while True:
            page = pc.lookup(vn, offset)
            if page is not None and page.locked and not page.valid:
                mount.stats.incr("getpage_io_waits")
                yield from page.wait_unlocked()
                continue
            break
        cached = page is not None and page.valid

        yield from cpu.work("getpage", cpu.costs.getpage_hit)
        action = ip.readahead.observe(offset, psize, cached)
        want = ip.cluster_blocks if action.sequential else 1
        # Degraded mode: repeated I/O errors on this file clamp reads to one
        # block until successes re-grow the cluster (forward progress first).
        want = ip.readahead.health.clamp(want, 1)

        # bmap() to find the disk location — called even when the page is in
        # memory, because of holes (the UFS_HOLE discussion).  The future-work
        # bypass skips it on a hit when di_blocks proves the file hole-free.
        lbn = offset // mount.sb.bsize
        if cached and tuning.hole_check_bypass and not ip.maybe_holes:
            addr, contig = bmap.HOLE, 1  # unused on the cached path
            mount.stats.incr("bmap_bypassed")
        else:
            addr, contig = yield from bmap.bmap_read(mount, ip, lbn, want)

        if not cached:
            yield from cpu.work("getpage", cpu.costs.getpage_miss)
            if addr == bmap.HOLE or offset >= ip.size:
                # A hole (or read past EOF via mmap): deliver zeros, no I/O.
                page = yield from _grab_page(vn, offset, req=req)
                page.zero()
                page.valid = True
                page.unlock()
                mount.stats.incr("zero_fill")
            else:
                sync_blocks = contig if tuning.read_clustering else 1
                sync_blocks = ip.readahead.health.clamp(sync_blocks, 1)
                buf, sync_bytes = yield from _issue_read(
                    vn, offset, sync_blocks, async_=False,
                    translation=(addr, contig), req=req,
                )
                if trace.enabled:
                    trace.emit("getpage_sync", offset=offset, bytes=sync_bytes)
                if action.ra_after_sync:
                    yield from _maybe_readahead(vn, offset + sync_bytes,
                                                req=req)
                if buf is not None:
                    try:
                        # First page not cached: wait.
                        yield from _await_buf(buf, req=req)
                    except DiskError as error:
                        mount.stats.incr("read_errors")
                        if trace.enabled:
                            trace.emit("read_error", offset=offset,
                                       code=error.code)
                        if sync_bytes <= psize:
                            raise
                        # A cluster-sized read failed: before surfacing EIO,
                        # retry just the faulted page (the health tracker has
                        # already shrunk this file's future clusters).
                        mount.stats.incr("degraded_reads")
                        retry, _ = yield from _issue_read(vn, offset, 1,
                                                          async_=False,
                                                          req=req)
                        if retry is None:
                            raise
                        yield from _await_buf(retry, req=req)
        elif action.ra_offset is not None:
            yield from _maybe_readahead(vn, action.ra_offset, req=req)

        page = pc.lookup(vn, offset)
        if page is None or not page.valid:
            # The frame was stolen between iodone and now (extreme pressure):
            # retry from the top.
            mount.stats.incr("getpage_retries")
            return (yield from ufs_getpage(vn, offset, rw, req=req))
        page.referenced = True
        return page
    finally:
        if req is not None:
            req.end(span)


def _maybe_readahead(vn: "UfsVnode", ra_offset: int,
                     req: "IORequest | None" = None
                     ) -> Generator[Any, Any, None]:
    """Start an asynchronous cluster read at ``ra_offset`` if sensible."""
    mount = vn.mount
    ip = vn.inode
    if ra_offset >= ip.size:
        return
    want = ip.cluster_blocks if mount.tuning.read_clustering else 1
    want = ip.readahead.health.clamp(want, 1)
    buf, nbytes = yield from _issue_read(vn, ra_offset, want, async_=True,
                                         req=req)
    if nbytes > 0:
        ip.readahead.issued(ra_offset, nbytes)
        mount.stats.incr("readaheads")
        if mount.trace.enabled:
            mount.trace.emit("readahead", offset=ra_offset, bytes=nbytes)


def _grab_page(vn: "UfsVnode", offset: int, req: "IORequest | None" = None
               ) -> Generator[Any, Any, "Page"]:
    """Allocate (locked) a page frame for <vn, offset>, waiting for memory."""
    mount = vn.mount
    pc = mount.pagecache
    while True:
        page = pc.allocate(vn, offset)
        if page is not None:
            yield from mount.cpu.work("page_alloc", mount.cpu.costs.page_alloc)
            return page
        yield from pc.wait_for_memory(req=req)


class _ReadIodone:
    """b_iodone for a cluster read: map the data in, or dissolve the frames.

    A named object (not a closure) so a queued buf's completion behaviour is
    inspectable and the request pipeline has one identifiable callback per
    layer instead of anonymous plumbing.
    """

    __slots__ = ("pages", "psize", "pagecache", "health", "store")

    def __init__(self, pages: "list[Page]", psize: int, pagecache,
                 health, store) -> None:
        self.pages = pages
        self.psize = psize
        self.pagecache = pagecache
        self.health = health
        self.store = store

    def __call__(self, done_buf: Buf) -> None:
        if done_buf.error is not None:
            # The read failed: there is nothing valid to map in.  Destroy
            # the frames so a retry faults cleanly instead of finding a
            # stale invalid page, and let the health tracker shrink this
            # file's clusters.
            for page in self.pages:
                page.unlock()
                self.pagecache.destroy(page)
            self.health.record_failure()
            return
        assert done_buf.data is not None
        for i, page in enumerate(self.pages):
            page.fill(done_buf.data[i * self.psize:(i + 1) * self.psize])
            _share_stored_block(self.store, done_buf, i, page)
            page.valid = True
            page.dirty = False
            page.unlock()
        self.health.record_success()


def _share_stored_block(store, buf: Buf, index: int, page: "Page") -> None:
    """Let page ``index`` of ``buf``'s transfer, if the transfer moved it
    whole, hold the block the disk now stores in place of equal bytes of
    its own.

    A cluster crosses the disk as one buffer that the store keeps split
    into blocks, and a volume copies every transfer it splits or joins, so
    without this a page and the disk would each hold a copy of the same
    block.  Only equal bytes are exchanged: a page whose write the disk has
    not stored yet (a write cache), or whose read came back altered, keeps
    what it has.  Called page by page, so a cluster's pages never hold
    their buffer's slices all at once.
    """
    nsec = page.size // store.sector_size
    if (index + 1) * nsec <= buf.nsectors:
        page.share(store.read(buf.sector + index * nsec, nsec))


def _issue_read(vn: "UfsVnode", offset: int, want_blocks: int, async_: bool,
                translation: "tuple[int, int] | None" = None,
                req: "IORequest | None" = None,
                ) -> Generator[Any, Any, "tuple[Buf | None, int]"]:
    """Read up to ``want_blocks`` starting at ``offset`` as one request.

    The cluster is bounded by bmap contiguity, EOF, and the first page that
    is already cached.  ``translation`` is the caller's bmap result for
    ``offset``, when it already has one (ufs_getpage does).  Returns
    (buf, bytes issued); (None, 0) if nothing needed reading.
    """
    mount = vn.mount
    ip = vn.inode
    pc = mount.pagecache
    sb = mount.sb
    psize = pc.page_size
    span = None
    if req is not None:
        span = req.begin("cluster_read", offset=offset, want=want_blocks,
                         async_=async_)
    try:
        lbn = offset // sb.bsize
        if translation is not None:
            addr, contig = translation
        else:
            addr, contig = yield from bmap.bmap_read(mount, ip, lbn,
                                                     max(1, want_blocks))
        if addr == bmap.HOLE:
            return None, 0
        blocks = min(contig, want_blocks)
        last_lbn = (ip.size - 1) // sb.bsize
        blocks = min(blocks, last_lbn - lbn + 1)
        if blocks <= 0:
            return None, 0

        # Collect consecutive uncached pages (stop at the first cached one).
        pages: list["Page"] = []
        for i in range(blocks):
            page_off = offset + i * psize
            if pc.lookup(vn, page_off) is not None:
                break
            page = yield from _grab_page(vn, page_off, req=req)
            pages.append(page)
        if not pages:
            return None, 0
        blocks = len(pages)

        # The tail block of a small file may be a fragment run.
        nbytes = (blocks - 1) * sb.bsize + ip.blksize(lbn + blocks - 1)
        nsectors = -(-nbytes // 512)
        cpu = mount.cpu
        if blocks > 1:
            yield from cpu.work("cluster", blocks * cpu.costs.cluster_per_page)
        yield from cpu.work("driver", cpu.costs.driver_strategy)

        buf = Buf(mount.engine, BufOp.READ, sb.fsb_to_sector(addr), nsectors,
                  async_=async_, owner=f"ufs-read-i{ip.ino}")
        if req is not None:
            buf.request = req
            buf.parent_span = span if span is not None else req.current_span
        mount.stats.incr("read_ios")
        mount.stats.incr("read_bytes", nbytes)

        buf.iodone.append(_ReadIodone(pages, psize, pc, ip.readahead.health,
                                      mount.driver.disk.store))
        mount.driver.strategy(buf)
        return buf, blocks * psize
    finally:
        if req is not None:
            req.end(span)


# ---------------------------------------------------------------------------
# putpage
# ---------------------------------------------------------------------------

def ufs_putpage(vn: "UfsVnode", offset: int, length: int, flags: PutFlags,
                req: "IORequest | None" = None
                ) -> Generator[Any, Any, None]:
    """Write pages of [offset, offset+length) back, per ``flags``."""
    mount = vn.mount
    ip = vn.inode
    psize = mount.pagecache.page_size
    cpu = mount.cpu
    trace = mount.trace
    yield from cpu.work("putpage", cpu.costs.putpage)

    if flags.delay:
        if length != psize:
            raise InvalidArgumentError("delayed putpage is per page")
        if mount.tuning.lazy_writeback:
            # Peacock-style: keep lying until the cache is flushed ("the
            # flush may cause a proportionally large I/O burst").
            if trace.enabled:
                trace.emit("write_delayed", offset=offset)
            return
        if mount.tuning.write_clustering:
            max_bytes = max(psize, ip.cluster_blocks * mount.sb.bsize)
            action = ip.writecluster.offer(offset, psize, max_bytes)
            if action.should_flush:
                if trace.enabled:
                    trace.emit(
                        "write_cluster_push",
                        offset=action.flush_offset, bytes=action.flush_len,
                        restarted=action.restarted,
                    )
                yield from _push_range(
                    vn, action.flush_offset, action.flush_len,
                    async_=True, free=False, req=req,
                )
            elif trace.enabled:
                trace.emit("write_delayed", offset=offset)
            return
        # Old system: start the I/O for this page right away.
        yield from _push_range(vn, offset, psize, async_=True, free=False,
                               req=req)
        return

    # Non-delayed: dirty bits are ground truth; fold in any stolen range.
    start, span = ip.writecluster.steal(offset, length)
    if span:
        end = max(offset + length, start + span)
        offset = min(offset, start)
        length = end - offset
    yield from _push_range(vn, offset, length, async_=flags.async_,
                           free=flags.free, req=req)


def _push_range(vn: "UfsVnode", offset: int, length: int, async_: bool,
                free: bool, req: "IORequest | None" = None
                ) -> Generator[Any, Any, None]:
    """Write out all dirty pages in [offset, offset+length), clustered by
    contiguity on disk (figure 8's while loop).

    The range is re-scanned after each cluster: pages may be cleaned,
    locked, or re-dirtied by other processes (pageout, other writers)
    between I/Os, and the dirty bits — not this routine's snapshot — are
    the ground truth.
    """
    mount = vn.mount
    ip = vn.inode
    pc = mount.pagecache
    sb = mount.sb
    psize = pc.page_size
    end = offset + length
    seen: set[int] = set()
    waits = []
    while True:
        dirty = [
            p for p in pc.vnode_range(vn, offset, end)
            if p.dirty and p.valid and not p.locked and p.frame not in seen
        ]
        if not dirty:
            break
        # The first run of consecutive page offsets...
        run = [dirty[0]]
        for p in dirty[1:]:
            if p.offset != run[-1].offset + psize:
                break
            run.append(p)
        # ...split by on-disk contiguity.
        lbn = run[0].offset // sb.bsize
        addr, contig = yield from bmap.bmap_read(mount, ip, lbn, len(run))
        if addr == bmap.HOLE:
            raise InvalidArgumentError(
                f"dirty page at {run[0].offset} has no backing store"
            )
        cluster = run[:contig]
        buf, written = yield from _issue_write(vn, cluster, addr, async_,
                                               free, req=req)
        seen.update(p.frame for p in written)
        if buf is not None:
            if not async_:
                waits.append(buf.done)
        elif not written:
            # No progress (pages stolen mid-flight): let time advance so
            # whoever holds them finishes, then rescan.
            seen.update(p.frame for p in cluster)
    errors: list[BaseException] = []
    wait_span = None
    if req is not None and waits:
        wait_span = req.begin("biowait", bufs=len(waits))
    try:
        for done in waits:
            try:
                yield done
            except EventFailed as failure:
                errors.append(failure.args[0] if failure.args else failure)
    finally:
        if req is not None:
            req.end(wait_span)
    if errors:
        # Drain every wait before surfacing the first error, so no buf is
        # left with an unconsumed failure.
        raise errors[0]


class _WriteIodone:
    """b_iodone for a cluster write: clean/free the pages, credit the
    throttle.

    Named, like :class:`_ReadIodone`, so the completion path is one
    inspectable object per issued cluster rather than an anonymous closure.
    The throttle credit runs from "interrupt context" (buf completion)
    whether the write succeeded or not — charged bytes must never leak.
    """

    __slots__ = ("pages", "pagecache", "throttle", "charged", "health",
                 "free", "store")

    def __init__(self, pages: "list[Page]", pagecache, throttle, charged: int,
                 health, free: bool, store) -> None:
        self.pages = pages
        self.pagecache = pagecache
        self.throttle = throttle
        self.charged = charged
        self.health = health
        self.free = free
        self.store = store

    def __call__(self, done_buf: Buf) -> None:
        if done_buf.error is not None:
            # The write failed: the bytes exist only in memory.  Keep the
            # pages dirty so later writebacks retry them, and shrink this
            # file's clusters so the error is not amplified.
            for page in self.pages:
                page.unlock()
            self.health.record_failure()
        else:
            for i, page in enumerate(self.pages):
                _share_stored_block(self.store, done_buf, i, page)
                page.dirty = False
                page.unlock()
                if self.free and not page.referenced and not page.free:
                    self.pagecache.free(page)
            self.health.record_success()
        self.throttle.credit(self.charged, source=done_buf)


def _issue_write(vn: "UfsVnode", cluster: "list[Page]", addr: int,
                 async_: bool, free: bool, req: "IORequest | None" = None
                 ) -> Generator[Any, Any, "tuple[Buf | None, list[Page]]"]:
    """Write one on-disk-contiguous cluster of dirty pages.

    Returns the buf (None if nothing needed writing) and the pages actually
    covered by it.
    """
    mount = vn.mount
    ip = vn.inode
    pc = mount.pagecache
    sb = mount.sb
    cpu = mount.cpu
    span = None
    if req is not None:
        span = req.begin("cluster_write", offset=cluster[0].offset,
                         pages=len(cluster), async_=async_)
    try:
        # Lock the pages; drop any that got cleaned or claimed meanwhile, and
        # keep only the still-consecutive prefix (the dropped tail stays dirty
        # and is picked up by the caller's rescan).
        run: list["Page"] = []
        for page in cluster:
            if page.locked:
                yield from page.lock_wait()
            else:
                page.lock()
            usable = page.dirty and page.valid and page.vnode is vn
            consecutive = not run or page.offset == run[-1].offset + pc.page_size
            if not usable or not consecutive:
                page.unlock()
                if not usable:
                    continue
                break
            run.append(page)
        if not run:
            return None, []
        # If leading pages were dropped, shift the physical address to match
        # (bmap guaranteed contiguity across the original cluster).
        addr += (run[0].offset - cluster[0].offset) // sb.bsize * sb.frag
        first_lbn = run[0].offset // sb.bsize
        last_lbn = first_lbn + len(run) - 1
        nbytes = (len(run) - 1) * sb.bsize + ip.blksize(last_lbn)
        # One join: a one-page cluster hands over the page's own bytes.
        # ``nbytes`` is whole fragments, so whole sectors.
        parts = [page.data for page in run]
        tail = nbytes - (len(run) - 1) * pc.page_size
        if tail < pc.page_size:
            parts[-1] = memoryview(parts[-1])[:tail]
        data = b"".join(parts)
        nsectors = nbytes // 512

        # The write is charged now but the sleep happens after the request is
        # queued — a single over-limit write must still reach the driver.
        ip.throttle.take(len(data))
        if len(run) > 1:
            yield from cpu.work("cluster", len(run) * cpu.costs.cluster_per_page)
        yield from cpu.work("driver", cpu.costs.driver_strategy)

        buf = Buf(mount.engine, BufOp.WRITE, sb.fsb_to_sector(addr), nsectors,
                  data=data, async_=async_, owner=f"ufs-write-i{ip.ino}")
        # Integrity attribution: records stamped for this write name the
        # owning inode and logical block, so scrub repair can find a clean
        # page-cache copy without walking block pointers.
        buf.integrity_owner = (ip.ino, first_lbn)
        if req is not None:
            buf.request = req
            buf.parent_span = span if span is not None else req.current_span
        mount.stats.incr("write_ios")
        mount.stats.incr("write_bytes", len(data))

        buf.iodone.append(_WriteIodone(run, pc, ip.throttle, len(data),
                                       ip.writecluster.health, free,
                                       mount.driver.disk.store))
        mount.driver.strategy(buf)
        throttle_span = None
        if req is not None and ip.throttle.enabled and ip.throttle.value < 0:
            throttle_span = req.begin("throttle_wait",
                                      over_by=-ip.throttle.value)
        try:
            yield from ip.throttle.wait_ok()
        finally:
            # A torn-down wait (interrupt, failing event) must still close
            # the span, or the request finishes with it open.
            if req is not None:
                req.end(throttle_span)
        return buf, run
    finally:
        if req is not None:
            req.end(span)


# ---------------------------------------------------------------------------
# rdwr
# ---------------------------------------------------------------------------

def ufs_rdwr(vn: "UfsVnode", rw: RW, offset: int, payload: "bytes | int",
             req: "IORequest | None" = None
             ) -> Generator[Any, Any, "bytes | int"]:
    """The read/write entry point: map, fault, copy, unmap per block."""
    if offset < 0:
        raise InvalidArgumentError("negative file offset")
    if rw is RW.READ:
        return (yield from _rdwr_read(vn, offset, int(payload), req=req))
    return (yield from _rdwr_write(vn, offset, bytes(payload), req=req))  # type: ignore[arg-type]


def _rdwr_read(vn: "UfsVnode", offset: int, count: int,
               req: "IORequest | None" = None
               ) -> Generator[Any, Any, bytes]:
    mount = vn.mount
    ip = vn.inode
    pc = mount.pagecache
    cpu = mount.cpu
    psize = pc.page_size
    tuning = mount.tuning
    if count < 0:
        raise InvalidArgumentError("negative read count")
    if offset >= ip.size:
        return b""
    count = min(count, ip.size - offset)

    # Future work, "data in the inode": "inodes are already cached in the
    # system separately from pages which means that the system could
    # satisfy many requests directly from the inode".
    if (tuning.inode_data_cache and ip.size <= INLINE_DATA_MAX
            and ip.inline_data is not None):
        yield from cpu.work("inode", cpu.costs.inode_update)
        yield from cpu.copy("copyout", count)
        mount.stats.incr("inline_reads")
        return ip.inline_data[offset:offset + count]

    # Future work, "random clustering": "if the request is a read of a
    # large amount of data ... the request size could be passed down to
    # the ufs_getpage routine, which could use the request size as a hint
    # to turn on clustering for what is apparently random access."
    if (tuning.random_clustering and count > psize
            and offset != ip.readahead.nextr):
        start = (offset // psize) * psize
        end = min(((offset + count + psize - 1) // psize) * psize, ip.size)
        pos = start
        while pos < end:
            want = (end - pos + mount.sb.bsize - 1) // mount.sb.bsize
            buf, nbytes = yield from _issue_read(vn, pos, want, async_=True,
                                                 req=req)
            if nbytes == 0:
                pos += psize  # cached or a hole: skip forward one page
            else:
                pos += nbytes
                mount.stats.incr("random_clustered_reads")

    parts: list[bytes] = []
    remaining = count
    while remaining > 0:
        page_off = (offset // psize) * psize
        chunk = min(psize - (offset - page_off), remaining)
        yield from cpu.work("segmap", cpu.costs.segmap)
        yield from cpu.work("fault", cpu.costs.fault)
        try:
            page = yield from ufs_getpage(vn, page_off, RW.READ, req=req)
        except DiskError:
            if parts:
                break  # partial read: return the bytes that arrived
            raise
        yield from page.lock_wait()
        yield from cpu.copy("copyout", chunk)
        parts.append(bytes(page.data[offset - page_off:offset - page_off + chunk]))
        page.unlock()
        # Unmap: free behind, if the conditions hold.
        if tuning.freebehind and offset - page_off + chunk == psize:
            lotsfree = max(1, pc.low_water)
            if mount.freebehind.should_free(
                ip.readahead.last_was_sequential, page_off,
                pc.freemem, lotsfree,
            ) and not page.locked and not page.dirty and not page.free:
                pc.free(page, front=True)
                mount.stats.incr("freebehind")
        offset += chunk
        remaining -= chunk
    result = b"".join(parts)
    if (tuning.inode_data_cache and ip.size <= INLINE_DATA_MAX
            and offset - count == 0 and count >= ip.size):
        # A whole-file read of a small file: cache it in the inode.
        ip.inline_data = result
    return result


def _rdwr_write(vn: "UfsVnode", offset: int, data: bytes,
                req: "IORequest | None" = None
                ) -> Generator[Any, Any, int]:
    mount = vn.mount
    ip = vn.inode
    pc = mount.pagecache
    cpu = mount.cpu
    sb = mount.sb
    psize = pc.page_size
    written = 0
    remaining = len(data)
    while remaining > 0:
        page_off = (offset // psize) * psize
        in_page = offset - page_off
        chunk = min(psize - in_page, remaining)
        lbn = page_off // sb.bsize
        new_size = max(ip.size, offset + chunk)
        frags_needed = _frags_for(sb, lbn, new_size)
        yield from cpu.work("segmap", cpu.costs.segmap)

        try:
            # Growing past the tail block: the old tail's fragment run must
            # be expanded to a full block first (classic UFS), preserving
            # its data.
            if ip.size > 0:
                old_last = (ip.size - 1) // sb.bsize
                if lbn > old_last and old_last < len(ip.direct):
                    yield from _expand_frag_tail(vn, old_last, req=req)
                if lbn > old_last + 1:
                    ip.maybe_holes = True  # whole blocks skipped: a hole
            elif lbn > 0:
                ip.maybe_holes = True
            ip.inline_data = None  # writes invalidate the inline cache

            old_ptr = yield from bmap.get_pointer(mount, ip, lbn)
            new_ptr = yield from bmap.bmap_alloc(mount, ip, lbn, frags_needed)
            relocated = old_ptr != bmap.HOLE and new_ptr != old_ptr

            page = pc.lookup(vn, page_off)
            if page is not None:
                if page.locked and not page.valid:
                    yield from page.wait_unlocked()
                    page = pc.lookup(vn, page_off)
            if page is None:
                if old_ptr == bmap.HOLE or (in_page == 0 and chunk >= min(
                        psize, new_size - page_off)):
                    # Nothing old to preserve: take a fresh zeroed page.
                    page = yield from _grab_page(vn, page_off, req=req)
                    page.zero()
                    page.valid = True
                    page.unlock()
                else:
                    yield from cpu.work("fault", cpu.costs.fault)
                    page = yield from ufs_getpage(vn, page_off, RW.WRITE,
                                                  req=req)
        except ReproError:
            # Partial-write semantics: if earlier chunks landed, report
            # them; the error resurfaces on the next write or fsync.
            if written:
                break
            raise
        yield from page.lock_wait()
        yield from cpu.copy("copyin", chunk)
        page.write(in_page, data[written:written + chunk])
        page.dirty = True
        page.referenced = True
        page.valid = True
        page.unlock()
        if new_size > ip.size:
            ip.size = new_size
            ip.mark_dirty()
        if relocated and mount.driver.disk.write_cache is not None:
            yield from _secure_relocation(vn, page_off, req=req)
        # Unmap: the delayed putpage is where write clustering happens.
        yield from ufs_putpage(vn, page_off, psize, PutFlags(delay=True),
                               req=req)
        offset += chunk
        written += chunk
        remaining -= chunk
    yield from cpu.work("inode", cpu.costs.inode_update)
    return written


def _expand_frag_tail(vn: "UfsVnode", tail_lbn: int,
                      req: "IORequest | None" = None
                      ) -> Generator[Any, Any, None]:
    """Grow the file's (old) tail block to a full block before the file
    extends past it.

    The reallocation may move the fragments; the data survives because the
    tail page is brought into the cache first and marked dirty, so the next
    writeback lands it at the new address.
    """
    mount = vn.mount
    ip = vn.inode
    sb = mount.sb
    old_ptr = yield from bmap.get_pointer(mount, ip, tail_lbn)
    if old_ptr == bmap.HOLE:
        return  # a hole stays a hole
    old_frags = ip.blksize(tail_lbn) // sb.fsize
    if old_frags >= sb.frag:
        return  # already a full block
    page = yield from ufs_getpage(vn, tail_lbn * sb.bsize, RW.READ, req=req)
    yield from page.lock_wait()
    try:
        new_addr = yield from bmap.bmap_alloc(mount, ip, tail_lbn, sb.frag)
        page.dirty = True  # must be written out (possibly to a new address)
        page.referenced = True
    finally:
        page.unlock()
    if new_addr != old_ptr and mount.driver.disk.write_cache is not None:
        yield from _secure_relocation(vn, tail_lbn * sb.bsize, req=req)
    mount.stats.incr("tail_expansions")


def _secure_relocation(vn: "UfsVnode", page_off: int,
                       req: "IORequest | None" = None
                       ) -> Generator[Any, Any, None]:
    """Make a just-relocated fragment run durable before its old home can
    be reused.

    Reallocation frees the old fragments while the on-disk inode may still
    point at them; over a volatile write cache the relocated data is not
    durable either, so another file can claim the freed fragments and have
    *its* flush land foreign bytes in sectors the durable inode still
    references — silently destroying previously-fsynced data.  Close the
    window inside the relocating write itself: land the block at its new
    address, barrier, then point the durable inode at it (and barrier
    again, for ordered-metadata mounts where the inode write itself rides
    the cache).
    """
    mount = vn.mount
    psize = mount.pagecache.page_size
    mount.stats.incr("relocation_barriers")
    yield from _push_range(vn, page_off, psize, async_=False, free=False,
                           req=req)
    yield from mount.flush_disk(req=req)
    yield from mount.write_inode(vn.inode, sync=True)
    yield from mount.flush_disk(req=req)


def _frags_for(sb, lbn: int, file_size: int) -> int:
    """Fragments logical block ``lbn`` needs for a file of ``file_size``."""
    from repro.ufs.ondisk import NDADDR

    if lbn >= NDADDR:
        return sb.frag
    last_lbn = (file_size - 1) // sb.bsize if file_size > 0 else 0
    if lbn < last_lbn:
        return sb.frag
    tail = file_size - last_lbn * sb.bsize
    return max(1, -(-tail // sb.fsize))
