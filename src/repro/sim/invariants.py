"""Cross-layer invariant checks ("simsan").

The paper's performance tricks are controlled lies: write clustering lies
about delayed pages, free-behind drops pages the pager thinks it owns, and
the write-limit semaphore promises that every queued byte is eventually
credited back.  Each lie rests on an accounting invariant that spans two or
more layers — and no single unit test exercises those seams.  This module
is the registry of such invariants, checked at *quiesce points*:

* after every :meth:`System.run`/``run_all`` (the engine is idle: no bufs
  outstanding, throttles drained, no requests open);
* inside ``fsync`` (not idle — other processes may be mid-I/O — so only the
  always-true subset runs);
* at campaign ends and benchmark phase boundaries;
* optionally every N simulated seconds (:meth:`Sanitizer.attach_every`).

The shipped checks:

``engine_liveness``
    ``Engine._live`` equals the number of non-cancelled, non-daemon heap
    entries — the run-to-idle counter can neither wedge the loop (too high)
    nor stop it with work pending (too low).
``buf_balance``
    Every buf handed to ``DiskDriver.strategy`` completes (or errors)
    exactly once, including driver-coalesce and split-retry paths; at idle
    the driver's outstanding table is empty.
``throttle_conservation``
    The write throttles ``system.mount.throttles()`` lists are never
    over-credited, the bytes charged never fall below the bytes still in
    the driver for that file, and at idle every throttle is drained.
``request_spans``
    No request finishes with a child span still open; at idle the registry
    has no open requests and the in-flight gauge reads zero.
``page_coherency``
    Every clean, valid, unlocked page of a mounted UFS file is
    byte-identical to its backing store, resolved through the same block
    pointers bmap uses (like ``allocator``, on a UfsMount only).  The same
    entry holds the buffer cache's decoded directory blocks to their bytes
    (``dir_views``, below), so the number of checks a run reports does not
    depend on which caches exist.
``page_index``
    The page cache's per-vnode index (``v_pages``) holds exactly the pages
    its name hash holds, with no emptied vnode left behind.
``allocator``
    In-memory cylinder-group bitmaps agree with the group counters and the
    superblock totals, and every block an active inode points at is marked
    allocated; ``deep=True`` additionally runs fsck's walkers read-only
    over the on-disk bytes.
``dir_views`` (run by ``page_coherency``)
    Every directory view a cached buffer carries lists exactly what
    ``iter_dirents`` decodes from the bytes it was built on, with a
    first-wins name index — so the incremental updates of create and
    unlink are checked against the reference decoder at every quiesce.

A violation raises :class:`SanitizerError`, which carries the offending
request's rendered span tree when one is attributable.

Adding a check: write a ``Sanitizer`` method raising :meth:`Sanitizer.fail`
on violation and append it to :data:`Sanitizer.CHECKS` with ``idle_only``
set if it only holds when the engine has drained.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any, Callable

from repro.sim.engine import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.system import System
    from repro.sim.engine import Recurring
    from repro.ufs.mount import UfsMount

#: Environment switch: ``REPRO_SANITIZE=1`` turns the sanitizer on for
#: every :class:`~repro.kernel.system.System` built afterwards (the test
#: suite sets it in ``tests/conftest.py``; production runs default off).
ENV_SWITCH = "REPRO_SANITIZE"


def default_enabled() -> bool:
    """The process-wide default for new sanitizers (see :data:`ENV_SWITCH`)."""
    return os.environ.get(ENV_SWITCH, "0").lower() in ("1", "true", "yes", "on")


class SanitizerError(SimulationError):
    """An invariant violation: a bug in the simulation, never a modelled
    fault.  Carries the failed check's name and, when one is attributable,
    the offending request's span tree."""

    def __init__(self, check: str, message: str,
                 span_tree: "str | None" = None):
        self.check = check
        self.span_tree = span_tree
        text = f"[simsan:{check}] {message}"
        if span_tree:
            text += f"\nrequest span tree:\n{span_tree}"
        super().__init__(text)


class Sanitizer:
    """The per-machine registry of cross-layer invariant checks."""

    def __init__(self, system: "System", enabled: "bool | None" = None):
        self.system = system
        self.enabled = default_enabled() if enabled is None else enabled
        #: Checkpoints taken and checks run, for tests and reports.
        self.checkpoints = 0
        self.checks_run = 0

    # -- running ----------------------------------------------------------
    def checkpoint(self, point: str, idle: bool, deep: bool = False) -> None:
        """Run every applicable check; raise on the first violation.

        ``idle`` asserts the engine has drained (post-``run`` quiesce);
        checks marked ``idle_only`` are skipped otherwise.  ``deep`` adds
        the expensive on-disk pass (fsck's walkers, read-only).
        """
        if not self.enabled:
            return
        self.checkpoints += 1
        for name, idle_only, fn in self.CHECKS:
            if idle_only and not idle:
                continue
            self.checks_run += 1
            fn(self, point, idle, deep)

    def attach_every(self, seconds: float) -> "Recurring":
        """Also run the non-idle-safe checks every ``seconds`` of simulated
        time, until the returned timer is cancelled.

        The cadence is simulated work, not host work, so an engine that
        takes fewer steps to the same clock checks exactly as often.  The
        checkpoint is a heap entry of its own (a daemon one: it fires while
        real work runs and never holds a run open), so it falls on a step
        boundary, and no clock run-ahead (DESIGN.md §5.2) can pass it.
        """
        return self.system.engine.every(
            seconds, lambda: self.checkpoint("timer", idle=False))

    def fail(self, check: str, message: str, request: Any = None) -> None:
        """Raise a :class:`SanitizerError`, attaching ``request``'s span
        tree when tracing captured one."""
        raise SanitizerError(check, message, span_tree=render_request(request))

    # -- check 1: engine liveness -----------------------------------------
    def _check_engine_liveness(self, point: str, idle: bool,
                               deep: bool) -> None:
        engine = self.system.engine
        pending = engine.live_pending()
        if engine._live != pending:
            self.fail(
                "engine_liveness",
                f"at {point}: _live={engine._live} but the heap holds "
                f"{pending} non-cancelled non-daemon entries "
                "(cancel/step accounting drifted)",
            )
        if idle and engine._live != 0:
            self.fail(
                "engine_liveness",
                f"at {point}: engine reported idle with _live={engine._live}",
            )

    # -- check 2: buf refcount / leak -------------------------------------
    def _drivers(self) -> "list[tuple[str, Any]]":
        """The kernel-facing device plus, for multi-member volumes, every
        member driver — buf balance must hold at each layer."""
        drivers: "list[tuple[str, Any]]" = [("driver", self.system.driver)]
        members = self.system.volume.members
        if len(members) > 1:
            drivers.extend((m.name, m.driver) for m in members)
        return drivers

    def _check_buf_balance(self, point: str, idle: bool, deep: bool) -> None:
        for label, driver in self._drivers():
            if not driver.idle:
                self.fail(
                    "buf_balance",
                    f"at {point}: quiesced with {label} busy "
                    f"(queue={len(driver.queue)}, busy={driver._busy})",
                )
            if driver.outstanding:
                buf = next(iter(driver.outstanding.values()))
                self.fail(
                    "buf_balance",
                    f"at {point}: {len(driver.outstanding)} buf(s) issued "
                    f"to {label} never completed; first leak: {buf!r} "
                    f"(owner={buf.owner!r})",
                    request=getattr(buf, "request", None),
                )
            issued = driver.stats["tracked_issued"]
            done = driver.stats["tracked_completed"]
            if issued != done:
                self.fail(
                    "buf_balance",
                    f"at {point}: {label}: {issued:g} bufs issued but "
                    f"{done:g} completions recorded (a buf completed twice "
                    "or vanished)",
                )

    # -- check 3: write-throttle conservation ------------------------------
    def _check_throttles(self, point: str, idle: bool, deep: bool) -> None:
        # Bytes still in the driver per throttle, recovered from the write
        # iodone hooks riding on the outstanding bufs.
        queued: dict[int, int] = {}
        for buf in self.system.driver.outstanding.values():
            for hook in buf.iodone:
                throttle = getattr(hook, "throttle", None)
                charged = getattr(hook, "charged", None)
                if throttle is not None and charged is not None:
                    queued[id(throttle)] = queued.get(id(throttle), 0) + charged
        mount = self.system.mount
        for owner, throttle in mount.throttles() if mount is not None else ():
            if not throttle.enabled:
                continue  # limit 0: take/credit are no-ops, nothing to hold
            if throttle.value > throttle.limit:
                self.fail(
                    "throttle_conservation",
                    f"at {point}: {owner} write throttle over-credited "
                    f"(value={throttle.value} > limit={throttle.limit})",
                )
            in_driver = queued.get(id(throttle), 0)
            if throttle.in_flight < in_driver:
                self.fail(
                    "throttle_conservation",
                    f"at {point}: {owner} has {in_driver} bytes queued in "
                    f"the driver but only {throttle.in_flight} charged "
                    "(a completion credited bytes still in flight)",
                )
            if idle and throttle.in_flight != 0:
                self.fail(
                    "throttle_conservation",
                    f"at {point}: {owner} still has "
                    f"{throttle.in_flight} bytes charged at idle "
                    "(a completion path never credited them back)",
                )

    # -- check 4: request/span balance -------------------------------------
    def _check_request_spans(self, point: str, idle: bool,
                             deep: bool) -> None:
        registry = self.system.requests
        if registry.span_leaks:
            rid, kind, names = registry.span_leaks[0]
            self.fail(
                "request_spans",
                f"at {point}: request #{rid} ({kind}) finished with open "
                f"span(s) {list(names)} — a begin() without a finally end() "
                f"({len(registry.span_leaks)} leak(s) total)",
            )
        if idle and registry.open:
            req = next(iter(registry.open.values()))
            self.fail(
                "request_spans",
                f"at {point}: {len(registry.open)} request(s) still open at "
                f"idle; first: {req!r}",
                request=req,
            )
        if idle and registry.inflight.value != 0:
            self.fail(
                "request_spans",
                f"at {point}: inflight gauge reads "
                f"{registry.inflight.value:g} at idle (start/complete "
                "accounting drifted)",
            )

    # -- check 5: page-cache / on-disk coherency ---------------------------
    def _check_page_coherency(self, point: str, idle: bool,
                              deep: bool) -> None:
        from repro.ufs.bmap import HOLE
        from repro.ufs.mount import UfsMount
        from repro.ufs.ondisk import resolve_lbn

        mount = self.system.mount
        if not isinstance(mount, UfsMount):
            return  # S5FS and NFS-client pages are not checked yet
        self._check_dir_views(point, mount)
        pc = self.system.pagecache
        disk = mount.driver.disk
        sb = mount.sb

        def pointer_block(addr_block: int) -> "bytes | bytearray":
            # Resolving a pointer costs no simulated I/O and moves nothing
            # in the LRU: the buffer cache's copy if it has one (``peek``),
            # else the raw store — the bytes bmap would read, in the same
            # precedence.  read_through: on a disk with a volatile write
            # cache the authoritative copy may still sit in its buffer.
            meta = mount.metacache.peek(addr_block)
            if meta is not None:
                return meta.data
            return disk.read_through(sb.fsb_to_sector(addr_block),
                                     sb.bsize // 512)

        for vn in mount.vnodes():
            ip = vn.inode
            if not ip.is_reg:
                continue
            for page in pc.vnode_pages(vn):
                if page.dirty or page.locked or not page.valid:
                    continue  # only clean, settled pages promise coherency
                if page.offset >= ip.size:
                    continue
                lbn = page.offset // sb.bsize
                nbytes = min(ip.blksize(lbn), ip.size - page.offset)
                addr = resolve_lbn(ip, lbn, sb.bsize, pointer_block)
                if addr == HOLE:
                    if any(page.data[:nbytes]):
                        self.fail(
                            "page_coherency",
                            f"at {point}: inode {ip.ino} offset "
                            f"{page.offset}: clean page over a hole holds "
                            "non-zero bytes",
                        )
                    continue
                nsectors = -(-nbytes // 512)
                ondisk = disk.read_through(sb.fsb_to_sector(addr), nsectors)
                if bytes(page.data[:nbytes]) != ondisk[:nbytes]:
                    self.fail(
                        "page_coherency",
                        f"at {point}: inode {ip.ino} offset {page.offset}: "
                        f"clean page differs from disk at fragment {addr} "
                        "(a write was lost or mis-addressed)",
                    )

    def _check_dir_views(self, point: str, mount: "UfsMount") -> None:
        from repro.ufs.ondisk import iter_dirents

        for meta in mount.metacache.buffers():
            view = meta.view
            if view is None:
                continue
            decoded = iter_dirents(view.image)
            first: dict[str, int] = {}
            for _, ino, name in decoded:
                first.setdefault(name, ino)
            if view.entries != decoded or view.index != first:
                self.fail(
                    "dir_views",
                    f"at {point}: the directory view of block "
                    f"{meta.frag_addr} disagrees with a decode of the bytes "
                    "it was built on (an incremental update went wrong)",
                )

    def _check_page_index(self, point: str, idle: bool, deep: bool) -> None:
        pc = self.system.pagecache
        grouped: dict[int, dict[int, Any]] = {}
        for (vnode_id, offset), page in pc._hash.items():
            grouped.setdefault(vnode_id, {})[offset] = page
        if pc._vpages != grouped:
            stale = sorted(vid for vid in pc._vpages.keys() | grouped.keys()
                           if pc._vpages.get(vid) != grouped.get(vid))
            self.fail(
                "page_index",
                f"at {point}: the per-vnode page index disagrees with the "
                f"page hash for vnode ids {stale[:8]} (an identity change "
                "bypassed allocate/destroy, or an emptied vnode was left "
                "behind)",
            )

    # -- check 6: allocator consistency ------------------------------------
    def _check_allocator(self, point: str, idle: bool, deep: bool) -> None:
        from repro.ufs.bmap import HOLE
        from repro.ufs.mount import UfsMount
        from repro.ufs.ondisk import NDADDR

        mount = self.system.mount
        if not isinstance(mount, UfsMount):
            return  # an S5FS free list is not checked yet; NFS has none
        sb = mount.sb
        total_nbfree = total_nffree = 0
        for cg in mount.cgs:
            nbfree, nffree = cg.free_counts(
                *sb.cg_data_range(cg.cgx), sb.frag)
            if nbfree != cg.nbfree or nffree != cg.nffree:
                self.fail(
                    "allocator",
                    f"at {point}: group {cg.cgx} counters say "
                    f"nbfree={cg.nbfree} nffree={cg.nffree} but its bitmap "
                    f"shows {nbfree}/{nffree}",
                )
            total_nbfree += cg.nbfree
            total_nffree += cg.nffree
        if (total_nbfree != sb.cs_nbfree
                or total_nffree != sb.cs_nffree):
            self.fail(
                "allocator",
                f"at {point}: superblock totals nbfree={sb.cs_nbfree} "
                f"nffree={sb.cs_nffree} != group sums "
                f"{total_nbfree}/{total_nffree}",
            )
        # Every block an active inode points at must be allocated in its
        # group's bitmap (a free-but-claimed fragment is a lost-data bug).
        for ip in mount.inodes():
            if ip.nlink <= 0:
                continue
            if not (ip.is_reg or ip.is_dir):
                continue  # fast symlinks reuse direct[] as target bytes
            claims = [a for a in ip.direct[:NDADDR] if a != HOLE]
            for a in (ip.indirect, ip.dindirect):
                if a != HOLE:
                    claims.append(a)
            for addr in claims:
                cgx = addr // sb.fpg
                rel = addr - sb.cgbase(cgx)
                if mount.cgs[cgx].frag_is_free(rel):
                    self.fail(
                        "allocator",
                        f"at {point}: inode {ip.ino} claims fragment {addr} "
                        f"but group {cgx}'s bitmap marks it free",
                    )
        if deep:
            self._check_allocator_deep(point)

    def _check_allocator_deep(self, point: str) -> None:
        """The on-disk form: fsck's walkers, read-only, must come back
        clean.  Only valid after a full sync (the caller's contract)."""
        from repro.ufs.fsck import fsck

        report = fsck(self.system.store)
        if not report.clean:
            self.fail(
                "allocator",
                f"at {point}: on-disk walk found "
                f"{len(report.findings)} problem(s); first: "
                f"{report.findings[0]}",
            )

    # -- check 7: volatile write-cache accounting ---------------------------
    def _check_write_cache(self, point: str, idle: bool, deep: bool) -> None:
        for member in self.system.volume.members:
            label, cache = member.name, member.write_cache
            if cache is None:
                continue
            actual = sum(e.nbytes for e in cache.entries)
            if cache.bytes != actual:
                self.fail(
                    "write_cache",
                    f"at {point}: {label} cache byte counter {cache.bytes} "
                    f"!= {actual} bytes actually held (accounting leak)",
                )
            if idle and cache.bytes > cache.limit_bytes:
                # Mid-service the cache may transiently exceed its limit
                # while the triggering write destages room; settled, it
                # must fit.
                self.fail(
                    "write_cache",
                    f"at {point}: {label} cache holds {cache.bytes} bytes "
                    f"over the {cache.limit_bytes}-byte limit at idle",
                )
            for entry in cache.entries:
                if len(entry.data) != entry.nsectors * cache.sector_size:
                    self.fail(
                        "write_cache",
                        f"at {point}: {label} entry #{entry.seq} claims "
                        f"{entry.nsectors} sectors but holds "
                        f"{len(entry.data)} bytes",
                    )

    # -- check 8: integrity-table audit (deep only) -------------------------
    def _check_integrity(self, point: str, idle: bool, deep: bool) -> None:
        """Every stamped fragment's media bytes must match its record.

        Deep-only: it reads the whole stamped set, and is only sound at a
        full quiesce (dirty cache pages may legitimately be newer than the
        media, but their *fragments* were stamped at the last media write,
        so a synced machine has no excuse).  Skipped per fragment: BAD
        marks (scrub already gave up, loudly) and write-cache overlays
        (those bytes are stamped at destage).
        """
        if not deep:
            return
        region = self.system.disk.integrity
        if region is None:
            return
        fs = region.frag_sectors
        cache = self.system.write_cache
        for frag in region.stamped_frags():
            if region.record(frag).bad:
                continue
            data = self.system.disk.read_through(frag * fs, fs)
            bad = region.verify_range(frag * fs, data, cache=cache)
            if bad:
                frag_, reason = bad[0]
                self.fail(
                    "integrity",
                    f"at {point}: fragment {frag_} fails its integrity "
                    f"record ({reason}) with no fault outstanding",
                )

    #: The check registry: (name, idle_only, method).
    CHECKS: "list[tuple[str, bool, Callable[..., None]]]" = [
        ("engine_liveness", False, _check_engine_liveness),
        ("buf_balance", True, _check_buf_balance),
        ("throttle_conservation", False, _check_throttles),
        ("request_spans", False, _check_request_spans),
        ("page_coherency", False, _check_page_coherency),
        ("page_index", False, _check_page_index),
        ("allocator", False, _check_allocator),
        ("write_cache", False, _check_write_cache),
        ("integrity", False, _check_integrity),
    ]


def render_request(request: Any) -> "str | None":
    """The span tree of ``request`` as text, when tracing captured one."""
    if request is None:
        return None
    tracer = getattr(request, "tracer", None)
    root = getattr(request, "root", None)
    if tracer is None or root is None or not tracer.spans:
        return None
    try:
        return tracer.render_spans(root)
    except Exception:  # pragma: no cover - rendering must never mask the bug
        return None
