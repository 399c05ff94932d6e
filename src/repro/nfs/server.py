"""The NFS server: stateless v2-style handlers over a server-side UFS.

Each RPC names the file by handle (its inode number); the server holds no
per-client state ("the beauty of NFS") — except the one piece of soft
state every real NFS server grew: an xid-keyed **duplicate-request cache**
(DRC).  A lossy wire makes clients retransmit, and a retransmitted
non-idempotent op (REMOVE, exclusive CREATE) re-executed verbatim turns
into the classic spurious-ENOENT/EEXIST bug.  :meth:`NfsServer.receive`
answers retransmissions from the cache instead of re-executing them, and
drops retransmissions of calls still in progress.

A WRITE pushes its pages to the server's disk before the reply, but
waits for no drive-cache flush and leaves the inode's new size and block
pointers delayed: the reply is not v2-stable.  A client's durability rests
on COMMIT, which fsyncs the file; the ``crashpoints`` preset ``nfs`` holds
every COMMIT to its word in every crash state of the server's drive.

The server is its own "machine": its own CPU and its own disk stack; only
the network couples it to the client.  :attr:`NfsServer.NFSD_THREADS`
requests are served concurrently, as the real nfsd pool did.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Generator

from repro.errors import FileExistsError_, FileNotFoundError_, ReproError
from repro.sim.resources import Resource
from repro.sim.stats import StatSet
from repro.units import US
from repro.vfs.vnode import PutFlags, RW

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine
    from repro.ufs.mount import UfsMount

#: Approximate on-the-wire size of an RPC header (v2 + UDP + IP).
RPC_HEADER = 128

#: Ops whose execution mutates the file system (DRC accounting).
MUTATING_OPS = frozenset({"create", "write", "setattr", "remove"})

#: DRC sentinel: the original transmission is still executing.
_IN_PROGRESS = object()


@dataclass
class RpcResult:
    """What a handler returns: payload plus its wire size."""

    value: Any
    wire_bytes: int = RPC_HEADER


@dataclass
class RpcReply:
    """A reply as it goes on the wire: outcome plus payload.

    ``status`` is ``"ok"`` (payload is the result value) or ``"err"``
    (payload is the modelled :class:`~repro.errors.ReproError` — errors are
    replies too, and are cached in the DRC like any other).
    """

    status: str
    payload: Any
    wire_bytes: int = RPC_HEADER


class NfsServer:
    """Serves LOOKUP/GETATTR/SETATTR/READ/WRITE/CREATE/REMOVE/COMMIT on a
    UfsMount."""

    #: The nfsd pool's size.
    NFSD_THREADS = 2
    #: Replies the duplicate-request cache keeps, least recent evicted.
    DRC_SIZE = 256

    def __init__(self, engine: "Engine", mount: "UfsMount",
                 per_rpc_cpu: float = 300 * US):
        self.mount = mount
        self.per_rpc_cpu = per_rpc_cpu
        self._nfsds = Resource(engine, capacity=self.NFSD_THREADS, name="nfsd")
        self._drc: "OrderedDict[int, RpcReply]" = OrderedDict()
        #: xids of mutating ops already executed once — accounting only (a
        #: real server has no such table; campaigns use it to prove the DRC
        #: made retransmitted mutations effectively exactly-once).
        self._executed_mutations: set[int] = set()
        self.stats = StatSet("nfsd")

    # -- the hardened entry point (one datagram arriving) ---------------------
    def receive(self, xid: int, op: str, corrupted: bool = False,
                **args: Any) -> Generator[Any, Any, "RpcReply | None"]:
        """Handle one arriving request datagram; None means no reply.

        The checksum is verified first (a corrupted request is discarded,
        never executed — a garbage WRITE must not reach the disk), then the
        DRC, and only then the real handler.
        """
        if corrupted:
            self.stats.incr("corrupt_requests_rejected")
            return None
        opkey = op.lower()
        cached = self._drc.get(xid)
        if cached is _IN_PROGRESS:
            # The original is still executing; answering now would race
            # it, so the retransmission is dropped (the client's timer
            # covers us).
            self.stats.incr("drc_in_progress_drops")
            return None
        if cached is not None:
            self.stats.incr("drc_hits")
            self._drc.move_to_end(xid)
            return cached
        self._drc[xid] = _IN_PROGRESS  # type: ignore[assignment]
        if opkey in MUTATING_OPS:
            if xid in self._executed_mutations:
                self.stats.incr("duplicate_executions")
            self._executed_mutations.add(xid)
        try:
            result = yield from self.call(op, **args)
            reply = RpcReply("ok", result.value, result.wire_bytes)
        except ReproError as exc:
            reply = RpcReply("err", exc)
        self._drc[xid] = reply
        self._drc.move_to_end(xid)
        while len(self._drc) > self.DRC_SIZE:
            self._drc.popitem(last=False)
            self.stats.incr("drc_evictions")
        return reply

    # -- dispatch -----------------------------------------------------------
    def call(self, op: str, **args: Any) -> Generator[Any, Any, RpcResult]:
        """Run one RPC through the nfsd pool; returns the result.

        When the server mount's tracer is enabled, each executed call gets
        an ``nfs_server`` span in the *server's* trace (the server is its
        own machine, so its spans live in its own tree — the client side's
        ``rpc`` span covers the wire and queueing from its vantage point).
        """
        trace = self.mount.trace
        span = None
        if trace.enabled:
            span = trace.span_begin("nfs_server", op=op.lower())
        try:
            grant = self._nfsds.acquire()
            try:
                yield grant
            except BaseException:
                # Interrupted in the queue: the slot (granted meanwhile or
                # not) must not stay charged to a call that will never run.
                self._nfsds.abandon(grant)
                raise
            try:
                yield from self.mount.cpu.work("nfsd", self.per_rpc_cpu)
                handler = getattr(self, f"_op_{op.lower()}", None)
                if handler is None:
                    raise ValueError(f"unknown NFS op {op!r}")
                result = yield from handler(**args)
                self.stats.incr(op.lower())
                return result
            finally:
                self._nfsds.release()
        finally:
            if span is not None:
                trace.span_end(span)

    # -- handlers ---------------------------------------------------------------
    def _op_lookup(self, path: str) -> Generator[Any, Any, RpcResult]:
        """Path -> file handle (inode number) + size."""
        vn = yield from self.mount.namei(path)
        return RpcResult((vn.inode.ino, vn.size))

    def _op_create(self, path: str, exclusive: bool = False
                   ) -> Generator[Any, Any, RpcResult]:
        try:
            vn = yield from self.mount.namei(path)
            if exclusive:
                raise FileExistsError_(f"{path} exists")
        except FileNotFoundError_:
            vn = yield from self.mount.create(path)
        return RpcResult((vn.inode.ino, vn.size))

    def _op_getattr(self, handle: int) -> Generator[Any, Any, RpcResult]:
        vn = yield from self.mount.iget(handle)
        return RpcResult(vn.size)

    def _op_setattr(self, handle: int) -> Generator[Any, Any, RpcResult]:
        """SETATTR with size 0 (RFC 1094 §2.2.3), the one attribute a client
        sets: the file's own truncate, its inode written before the
        reply."""
        vn = yield from self.mount.iget(handle)
        yield from vn.truncate()
        return RpcResult(None)

    def _op_read(self, handle: int, offset: int, count: int
                 ) -> Generator[Any, Any, RpcResult]:
        vn = yield from self.mount.iget(handle)
        data = yield from vn.rdwr(RW.READ, offset, count)
        assert isinstance(data, bytes)
        return RpcResult(data, wire_bytes=RPC_HEADER + len(data))

    def _op_write(self, handle: int, offset: int, data: bytes
                  ) -> Generator[Any, Any, RpcResult]:
        """Push the written pages to the disk before the reply; no drive
        flush, and the inode stays delayed (COMMIT makes both durable)."""
        vn = yield from self.mount.iget(handle)
        n = yield from vn.rdwr(RW.WRITE, offset, data)
        psize = self.mount.pagecache.page_size
        start = (offset // psize) * psize
        length = offset + len(data) - start
        yield from vn.putpage(start, length, PutFlags())
        return RpcResult(n)

    def _op_remove(self, path: str) -> Generator[Any, Any, RpcResult]:
        """The canonical non-idempotent op: a second execution is ENOENT."""
        yield from self.mount.unlink(path)
        return RpcResult(None)

    def _op_commit(self, handle: int) -> Generator[Any, Any, RpcResult]:
        vn = yield from self.mount.iget(handle)
        yield from vn.fsync()
        return RpcResult(None)
