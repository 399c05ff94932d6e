"""The NFS client: a vnode type whose backing store is across the wire.

``NfsVnode`` implements the same three entry points as UFS — rdwr,
getpage, putpage — which is the entire point of the vnode architecture:
"the main body of the kernel ... manipulate[s] a file system without
knowing the details of how it is implemented."

Pages live in the *client's* unified page cache, named by the NFS vnode,
exactly as figure 1 draws ``libc.so``.  A biod-style daemon effect is
modelled inline: sequential reads trigger one-block read-ahead RPCs, and
writes are issued write-behind with a bounded number outstanding.

The RPC layer assumes a lossy datagram wire (see ``repro.faults.netplan``)
and is hardened the way real NFS/UDP clients were:

* every call carries a **transaction id (xid)**; any reply bearing the xid
  completes the call, so a late original and a fresh retransmission cannot
  confuse each other, and a duplicated reply is ignored;
* the **retransmission timeout adapts**: per-op-class smoothed RTT and
  variance estimators (Jacobson/Karels: ``srtt + 4 * rttvar``), with
  Karn's rule — a sample is only taken when the call was answered without
  any retransmission, since an ambiguous reply could be to either copy;
* timeouts back off **exponentially with seeded jitter**, bounded by
  :attr:`RttEstimator.MAX_RTO`;
* **hard vs soft mounts**: a hard mount retransmits forever (the default,
  like ``mount -o hard``); a soft mount gives up after ``retrans``
  transmissions and raises :class:`~repro.errors.RpcTimeoutError`
  (ETIMEDOUT), which the syscall layer mirrors into ``proc.errno``;
* replies that arrive **corrupted** fail their checksum and are discarded
  before any payload reaches the page cache — the retransmission timer
  then recovers, so the client cache can never serve damaged bytes.

Write-behind failures (a soft mount's major timeout, a server error) are
held in the vnode and raised from the next ``write``/``fsync``, matching
the deferred-error semantics the disk path has in ``ufs/io.py``.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any, Generator, Iterator

from repro.core import ReadAheadState, WriteThrottle
from repro.errors import (
    FileNotFoundError_, InvalidArgumentError, ReproError, RpcTimeoutError,
)
from repro.nfs.net import Network
from repro.nfs.server import NfsServer, RPC_HEADER
from repro.sim.events import AnyOf, Event
from repro.sim.stats import StatSet
from repro.units import KB
from repro.vfs.vnode import PutFlags, RW, Vfs, Vnode, VnodeType

if TYPE_CHECKING:  # pragma: no cover
    from repro.cpu import Cpu
    from repro.sim.engine import Engine
    from repro.vm.page import Page
    from repro.vm.pagecache import PageCache

#: NFSv2 maximum transfer size.
NFS_MAXDATA = 8 * KB


class RttEstimator:
    """Jacobson/Karels adaptive retransmission timeout for one op class.

    ``srtt`` is the smoothed round-trip time (gain 1/8), ``rttvar`` the
    smoothed mean deviation (gain 1/4); the timeout is ``srtt + 4*rttvar``
    clamped to ``[MIN_RTO, MAX_RTO]``.  Until the first sample arrives the
    configured initial timeout is used.
    """

    MIN_RTO = 0.1
    MAX_RTO = 20.0

    def __init__(self, initial_rto: float = 1.1):
        if initial_rto <= 0:
            raise ValueError("initial_rto must be positive")
        self.initial_rto = initial_rto
        self.srtt: "float | None" = None
        self.rttvar = 0.0
        self.samples = 0

    def observe(self, rtt: float) -> None:
        """Fold one clean (never-retransmitted) RTT sample in."""
        if rtt < 0:
            raise ValueError("rtt must be >= 0")
        if self.srtt is None:
            self.srtt = rtt
            self.rttvar = rtt / 2
        else:
            self.rttvar += (abs(self.srtt - rtt) - self.rttvar) / 4
            self.srtt += (rtt - self.srtt) / 8
        self.samples += 1

    def rto(self) -> float:
        """Current retransmission timeout."""
        if self.srtt is None:
            return self.initial_rto
        return min(self.MAX_RTO,
                   max(self.MIN_RTO, self.srtt + 4 * self.rttvar))


class NfsMount(Vfs):
    """A client-side mount of a remote server (hard by default)."""

    #: Bytes of write-behind each file may have in flight.
    WRITE_BEHIND_LIMIT = 64 * KB
    #: Seed of the retransmission backoff's jitter.
    JITTER_SEED = 0

    def __init__(self, engine: "Engine", cpu: "Cpu", pagecache: "PageCache",
                 network: Network, server: NfsServer,
                 soft: bool = False, timeo: float = 1.1, retrans: int = 5):
        super().__init__("nfs0")
        if retrans < 1:
            raise ValueError("retrans must be >= 1")
        self.engine = engine
        self.cpu = cpu
        self.pagecache = pagecache
        self.network = network
        self.server = server
        self.soft = soft
        self.timeo = timeo
        self.retrans = retrans
        self.stats = StatSet(self.name)
        #: Every file's write-behind throttle reports here; kept apart
        #: from ``stats``, which the NFS digests hash.
        self.throttle_stats = StatSet("throttle")
        self._vnodes: dict[int, "NfsVnode"] = {}
        self._root: "NfsVnode | None" = None
        self._next_xid = 1
        self._estimators: dict[str, RttEstimator] = {}
        self._jitter = random.Random(self.JITTER_SEED)
        #: Transmissions the most recent completed rpc() needed (1 = clean);
        #: namespace ops use it for retransmission-aware error handling.
        self._last_transmissions = 0

    @property
    def root(self) -> "NfsVnode":
        if self._root is None:
            raise RuntimeError("call mount.activate() (a process) first")
        return self._root

    def vnodes(self) -> Iterator["NfsVnode"]:
        """Every vnode this mount has looked up (the root included)."""
        return iter(self._vnodes.values())

    def throttles(self) -> Iterator[tuple[str, WriteThrottle]]:
        """The biod write-behind limit of every file looked up."""
        for vn in self._vnodes.values():
            yield f"nfs handle {vn.handle}", vn.throttle

    def activate(self) -> Generator[Any, Any, "NfsMount"]:
        handle, size = yield from self.rpc("LOOKUP", path="/")
        self._root = self._vnode_for(handle, size, VnodeType.DIRECTORY)
        return self

    # -- RPC plumbing ---------------------------------------------------------
    def _estimator(self, op: str) -> RttEstimator:
        """Per-op-class timers, as historical NFS clients kept them (a READ
        and a LOOKUP have very different service times)."""
        est = self._estimators.get(op)
        if est is None:
            est = RttEstimator(initial_rto=self.timeo)
            self._estimators[op] = est
        return est

    def rpc(self, op: str, request_bytes: int = RPC_HEADER,
            req: "Any | None" = None,
            **args: Any) -> Generator[Any, Any, Any]:
        """One remote procedure call, retransmitted until answered.

        Request out, handler, reply back — except any leg may drop, damage,
        duplicate, or delay the message, so the call is driven by a
        retransmission loop: send, arm the adaptive timer, race it against
        the xid's reply event.  Hard mounts loop forever; soft mounts raise
        :class:`RpcTimeoutError` after ``retrans`` transmissions.

        ``req`` is the syscall-level I/O request, when the call is made on
        behalf of one: each RPC shows up as an ``rpc`` span (op, xid, and
        final transmission count) in the request's tree.
        """
        self.stats.incr("rpcs")
        self.stats.incr(f"rpc_{op.lower()}")
        yield from self.cpu.work("nfs_client", self.cpu.costs.syscall)
        xid = self._next_xid
        self._next_xid += 1
        span = req.begin("rpc", op=op, xid=xid) if req is not None else None
        reply: Event = Event(self.engine, name=f"nfs-reply-xid{xid}")
        estimator = self._estimator(op)
        rto = estimator.rto()
        transmissions = 0
        try:
            while True:
                transmissions += 1
                if transmissions > 1:
                    self.stats.incr("retransmits")
                sent_at = self.engine.now
                self.engine.process(
                    self._transmit(xid, op, request_bytes, args, reply),
                    name=f"rpc-{op.lower()}-x{xid}t{transmissions}")
                timer = self.engine.timeout(rto)
                yield AnyOf(self.engine, [reply, timer])
                if reply.triggered:
                    timer.cancel()
                    break
                self.stats.incr("rpc_timeouts")
                if self.soft and transmissions >= self.retrans:
                    self.stats.incr("major_timeouts")
                    self._last_transmissions = transmissions
                    raise RpcTimeoutError(
                        f"NFS {op} xid={xid}: no reply after {transmissions} "
                        f"transmissions (soft mount)")
                # Bounded exponential backoff with seeded jitter.
                rto = min(RttEstimator.MAX_RTO,
                          rto * 2 * (1 + 0.1 * self._jitter.random()))
            if transmissions == 1:
                # Karn's rule: a retransmitted call's reply is ambiguous (it
                # may answer either copy), so only clean calls feed the
                # estimator.
                estimator.observe(self.engine.now - sent_at)
                self.stats.incr("rtt_samples")
            self._last_transmissions = transmissions
            status, payload = reply.value
            if status == "err":
                raise payload
            return payload
        finally:
            if req is not None:
                req.end(span, transmissions=transmissions)

    def _transmit(self, xid: int, op: str, request_bytes: int,
                  args: "dict[str, Any]", reply: Event
                  ) -> Generator[Any, Any, None]:
        """One transmission: request leg, server, reply leg."""
        d = yield from self.network.send_to_server(request_bytes)
        if not d.delivered:
            return
        if d.duplicated:
            # The copy arrives separately, a little later; the server's DRC
            # is what keeps it from re-executing anything.
            self.engine.process(
                self._serve(xid, op, args, reply, corrupted=d.corrupted,
                            extra_delay=self.network.latency),
                name=f"rpc-dup-x{xid}")
        yield from self._serve(xid, op, args, reply, corrupted=d.corrupted)

    def _serve(self, xid: int, op: str, args: "dict[str, Any]", reply: Event,
               corrupted: bool = False, extra_delay: float = 0.0
               ) -> Generator[Any, Any, None]:
        """Hand one arrived request datagram to the server, then carry the
        reply (if any) back over the wire and complete the xid's event."""
        if extra_delay > 0:
            yield from self.engine.sleep(extra_delay)
        outcome = yield from self.server.receive(xid, op, corrupted=corrupted,
                                                **args)
        if outcome is None:
            return  # discarded: checksum, crash window, or in-progress dup
        d = yield from self.network.send_to_client(outcome.wire_bytes)
        if not d.delivered:
            return
        if d.corrupted:
            # The reply checksum fails: drop it before any byte can reach
            # the page cache; the retransmission timer recovers.
            self.stats.incr("corrupt_replies_dropped")
            return
        copies = 2 if d.duplicated else 1
        for _ in range(copies):
            if not reply.triggered:  # a duplicate/late reply is ignored
                reply.succeed((outcome.status, outcome.payload))
            else:
                self.stats.incr("duplicate_replies_ignored")

    # -- namespace ---------------------------------------------------------------
    def _vnode_for(self, handle: int, size: int,
                   vtype: VnodeType = VnodeType.REGULAR) -> "NfsVnode":
        vn = self._vnodes.get(handle)
        if vn is None:
            vn = NfsVnode(self, handle, size, vtype)
            self._vnodes[handle] = vn
        elif vn.throttle.in_flight == 0:
            # Trust the server's latest attributes — after a reboot or a
            # remote truncation the file may be *smaller* than we cached.
            # Only our own in-flight write-behind (which the server has not
            # seen yet) makes the local view more current than the reply.
            vn.remote_size = size
        return vn

    def open(self, path: str, create: bool = False
             ) -> Generator[Any, Any, "NfsVnode"]:
        """LOOKUP (or CREATE) a remote file; returns its vnode."""
        op = "CREATE" if create else "LOOKUP"
        request = RPC_HEADER + len(path)
        handle, size = yield from self.rpc(op, request_bytes=request,
                                           path=path)
        return self._vnode_for(handle, size)

    # -- the Vfs namespace surface (lets a Proc run against an NFS mount) -----
    def namei(self, path: str) -> Generator[Any, Any, "NfsVnode"]:
        return (yield from self.open(path, create=False))

    def create(self, path: str) -> Generator[Any, Any, "NfsVnode"]:
        return (yield from self.open(path, create=True))

    def unlink(self, path: str) -> Generator[Any, Any, None]:
        """REMOVE, with the classic retransmission heuristic: ENOENT on a
        call we had to retransmit is swallowed, because the likeliest cause
        is our own earlier copy succeeding and its reply getting lost (the
        server's DRC covers the common case; this covers an evicted DRC
        entry, or a server without a DRC)."""
        request = RPC_HEADER + len(path)
        try:
            yield from self.rpc("REMOVE", request_bytes=request, path=path)
        except FileNotFoundError_:
            if self._last_transmissions <= 1:
                raise
            self.stats.incr("remove_enoent_swallowed")


class NfsVnode(Vnode):
    """A remote file, cached page by page on the client."""

    def __init__(self, mount: NfsMount, handle: int, size: int,
                 vtype: VnodeType = VnodeType.REGULAR):
        super().__init__(vtype)
        self.mount = mount
        self.handle = handle
        self.remote_size = size
        self.readahead = ReadAheadState()
        self.throttle = WriteThrottle(mount.engine,
                                      mount.WRITE_BEHIND_LIMIT,
                                      mount.throttle_stats,
                                      owner=f"nfs handle {handle}")
        #: Deferred write-behind failure, raised by the next write()/fsync()
        #: (the NFS flavour of ufs/io.py's partial-write error propagation).
        self.error: "ReproError | None" = None

    @property
    def size(self) -> int:
        return self.remote_size

    def _raise_deferred(self) -> None:
        """Surface (and clear) a failed asynchronous write-behind."""
        if self.error is not None:
            exc, self.error = self.error, None
            self.mount.stats.incr("deferred_errors_raised")
            raise exc

    # -- pages ------------------------------------------------------------------
    def _grab_page(self, offset: int,
                   req: "Any | None" = None) -> Generator[Any, Any, "Page"]:
        pc = self.mount.pagecache
        while True:
            page = pc.allocate(self, offset)
            if page is not None:
                return page
            yield from pc.wait_for_memory(req=req)

    def _fetch_page(self, offset: int,
                    req: "Any | None" = None) -> Generator[Any, Any, "Page"]:
        """READ one page from the server into the client cache."""
        pc = self.mount.pagecache
        page = pc.lookup(self, offset)
        if page is not None:
            if page.locked and not page.valid:
                yield from page.wait_unlocked()
                return (yield from self._fetch_page(offset, req=req))
            if page.valid:
                self.mount.stats.incr("cache_hits")
                return page
        page = yield from self._grab_page(offset, req=req)
        count = min(NFS_MAXDATA, max(0, self.remote_size - offset))
        try:
            if count == 0:
                page.zero()
            else:
                data = yield from self.mount.rpc(
                    "READ", handle=self.handle, offset=offset, count=count,
                    req=req,
                )
                page.fill(data)
        except ReproError:
            # The page never became valid; give the frame back rather than
            # leaving a locked husk that would wedge later lookups.
            page.unlock()
            pc.destroy(page)
            raise
        page.valid = True
        page.unlock()
        self.mount.stats.incr("remote_reads")
        return page

    def getpage(self, offset: int, rw: RW = RW.READ,
                req: "Any | None" = None) -> Generator[Any, Any, "Page"]:
        psize = self.mount.pagecache.page_size
        if offset % psize:
            raise InvalidArgumentError("offset not page aligned")
        # observe() updates the sequential-access state; this entry point
        # never issues read-ahead itself, so the action is not consulted.
        self.readahead.observe(offset, psize, cached=False,
                               readahead_enabled=False)
        page = yield from self._fetch_page(offset, req=req)
        page.referenced = True
        return page

    def putpage(self, offset: int, length: int, flags: PutFlags,
                req: "Any | None" = None) -> Generator[Any, Any, None]:
        """Write dirty pages back over the wire (stable on the server)."""
        pc = self.mount.pagecache
        psize = pc.page_size
        for page in pc.vnode_range(self, offset, offset + length):
            if not page.dirty or page.locked:
                continue
            page.lock()
            count = min(psize, self.remote_size - page.offset)
            if count <= 0:
                page.dirty = False
                page.unlock()
                continue
            data = bytes(page.data[:count])
            try:
                yield from self.mount.rpc(
                    "WRITE", request_bytes=RPC_HEADER + len(data),
                    handle=self.handle, offset=page.offset, data=data,
                    req=req,
                )
                page.dirty = False  # stays dirty on failure, for retry
            finally:
                page.unlock()
            self.mount.stats.incr("remote_writes")

    # -- rdwr ----------------------------------------------------------------------
    def rdwr(self, rw: RW, offset: int, payload: "bytes | int",
             req: "Any | None" = None) -> Generator[Any, Any, "bytes | int"]:
        if rw is RW.READ:
            return (yield from self._read(offset, int(payload), req=req))
        return (yield from self._write(offset, bytes(payload), req=req))  # type: ignore[arg-type]

    def _read(self, offset: int, count: int,
              req: "Any | None" = None) -> Generator[Any, Any, bytes]:
        cpu = self.mount.cpu
        psize = self.mount.pagecache.page_size
        if offset >= self.remote_size:
            return b""
        count = min(count, self.remote_size - offset)
        parts: list[bytes] = []
        remaining = count
        while remaining > 0:
            page_off = (offset // psize) * psize
            chunk = min(psize - (offset - page_off), remaining)
            action = self.readahead.observe(offset=page_off,
                                            page_size=psize, cached=False)
            # biod: asynchronous read-ahead daemons run ahead of the
            # consumer on sequential access.
            if action.sequential:
                for ahead in (1, 2, 3):
                    next_off = page_off + ahead * psize
                    if next_off >= self.remote_size:
                        break
                    if self.mount.pagecache.lookup(self, next_off) is None:
                        self.mount.engine.process(
                            self._fetch_ahead(next_off), name="biod-read")
            page = yield from self._fetch_page(page_off, req=req)
            yield from cpu.copy("copyout", chunk)
            parts.append(bytes(page.data[offset - page_off:
                                         offset - page_off + chunk]))
            offset += chunk
            remaining -= chunk
        return b"".join(parts)

    def _fetch_ahead(self, offset: int) -> Generator[Any, Any, None]:
        """A biod read-ahead: purely opportunistic, so a soft-mount timeout
        here is dropped — the consumer's own synchronous fetch will retry
        and surface any real error."""
        try:
            yield from self._fetch_page(offset)
        except ReproError:
            self.mount.stats.incr("readahead_errors_dropped")

    def _write(self, offset: int, data: bytes,
               req: "Any | None" = None) -> Generator[Any, Any, int]:
        """Write-behind: pages go dirty locally, pushed with a bounded
        number of bytes outstanding (the biod pool's depth).

        The detached biod pushes do *not* carry ``req`` — they outlive the
        syscall and would race on the request's span stack; only the
        synchronous parts of the write (page fetches, throttle waits) are
        attributed.
        """
        self._raise_deferred()
        cpu = self.mount.cpu
        pc = self.mount.pagecache
        psize = pc.page_size
        written = 0
        while written < len(data):
            page_off = ((offset + written) // psize) * psize
            in_page = (offset + written) - page_off
            chunk = min(psize - in_page, len(data) - written)
            page = pc.lookup(self, page_off)
            if page is None:
                if in_page == 0 and chunk >= min(
                        psize, max(self.remote_size, offset + len(data))
                        - page_off):
                    page = yield from self._grab_page(page_off, req=req)
                    page.zero()
                    page.valid = True
                    page.unlock()
                else:
                    page = yield from self._fetch_page(page_off, req=req)
            yield from page.lock_wait()
            yield from cpu.copy("copyin", chunk)
            page.write(in_page, data[written:written + chunk])
            page.dirty = True
            page.valid = True
            page.unlock()
            self.remote_size = max(self.remote_size,
                                   offset + written + chunk)
            written += chunk
            # Push the page write-behind, throttled.
            self.throttle.take(psize)
            self.mount.engine.process(
                self._push_one(page_off), name="biod-write",
            )
            span = None
            if req is not None and self.throttle.value < 0:
                span = req.begin("throttle_wait", over_by=-self.throttle.value)
            try:
                yield from self.throttle.wait_ok()
            finally:
                if req is not None:
                    req.end(span)
        return written

    def _push_one(self, page_off: int) -> Generator[Any, Any, None]:
        try:
            yield from self.putpage(page_off,
                                    self.mount.pagecache.page_size,
                                    PutFlags(async_=True))
        except ReproError as exc:
            # Remember the failure for the next write()/fsync(); the page
            # stays dirty for a later retry.
            self.error = exc
            self.mount.stats.incr("write_behind_errors")
        finally:
            # Whatever happened, the throttle slot must come back — a stuck
            # slot would wedge this file at the limit forever.
            self.throttle.credit(self.mount.pagecache.page_size, source=self)

    def truncate(self) -> Generator[Any, Any, None]:
        """SETATTR size 0.  In-flight write-behind drains first, so no WRITE
        of the old bytes lands on the server after the SETATTR; the cached
        pages and the read-ahead prediction go with the bytes."""
        self._raise_deferred()
        yield from self.throttle.drain()
        yield from self.mount.pagecache.vnode_discard(self)
        self.readahead.reset()
        yield from self.mount.rpc("SETATTR", handle=self.handle)
        self.remote_size = 0

    def fsync(self, req: "Any | None" = None) -> Generator[Any, Any, None]:
        self._raise_deferred()
        # Let in-flight write-behind drain first: their failures belong to
        # this fsync, and their pages may need the synchronous pass below.
        yield from self.throttle.drain()
        self._raise_deferred()
        yield from self.putpage(0, max(self.remote_size, 1), PutFlags(),
                                req=req)
        yield from self.mount.rpc("COMMIT", handle=self.handle, req=req)
