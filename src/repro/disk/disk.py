"""The rotational disk mechanism: seeks, rotation, transfer, track buffer.

Timing model
------------
The spindle never stops: the angular position is a pure function of simulated
time.  Servicing a request walks it track by track:

* **media access** (all writes; reads that miss the track buffer): per-request
  controller overhead, a seek if the cylinder changes, a head switch if the
  head changes, the rotational wait until the first target sector arrives,
  then one sector time per sector.  Track and cylinder skew make sequential
  multi-track transfers stream with only small waits at boundaries.
* **buffer-assisted read**: when a read starts inside the region the
  look-ahead buffer has been filling since the last media read, no rotational
  latency is charged; the request completes when the last requested sector
  has rotated into the buffer (or after the bus transfer, whichever is
  later).  This is the mechanism behind the paper's "the track buffer helps
  only reads" and behind clustered reads streaming at the media rate.

Writes are write-through (the paper's footnote 5: acknowledging a write from
the buffer would break the stable-storage promise) and invalidate the buffer,
since the head moves and look-ahead stops.

With a :class:`~repro.disk.wcache.VolatileWriteCache` attached, the disk
instead models the drive footnote 5 warns about: non-FUA writes are
acknowledged after the bus transfer and sit volatile until a FLUSH command,
a force-unit-access write, or capacity pressure destages them (paying the
real media time then).  Reads see the cache contents through an overlay.

Either drive can keep a **journal**: the exact sequence of its
durability-relevant events (:class:`JournalEvent`), each carrying the
payload bytes, the originating request and the drive's index in its
volume.  On a write-through drive every media write is a ``fua`` event,
durable when it completes.  The members of a volume may share one list:
events complete on one engine, so its order is the volume-wide order.
Replayed member by member over the images the journal started from, it
reproduces the stores; the crash-point explorer
(:mod:`repro.faults.crashpoints`) enumerates crash states from it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from repro.disk.buf import Buf
from repro.disk.geometry import DiskGeometry
from repro.disk.store import DiskStore
from repro.errors import ChecksumError
from repro.sim.events import Event
from repro.units import MB, MS

if TYPE_CHECKING:  # pragma: no cover
    from repro.disk.wcache import VolatileWriteCache
    from repro.faults.plan import FaultPlan
    from repro.obs.metrics import MetricsRegistry
    from repro.sim.engine import Engine


class JournalEvent:
    """One durability-relevant event, in the order the drive saw it.

    ``kind`` is one of:

    * ``write``   — a write completed into the volatile cache;
    * ``fua``     — a write went to the media (force unit access, or any
      write on a write-through drive): durable when it completed;
    * ``destage`` — the cache's head entry became durable;
    * ``flush``   — a FLUSH command finished draining the cache;
    * ``drop``    — the drive died and the volatile contents were lost.

    ``seq`` names the cache entry a ``write`` created and a ``destage``
    made durable; it is -1 on events that have no cache entry.  ``member``
    is the index of the drive in its volume (0 on a single disk).
    ``issued`` is the journal's length when the drive began the request:
    a ``fua`` write is mid-transfer at every index from there to its own.
    """

    __slots__ = ("kind", "seq", "sector", "nsectors", "data", "ordered",
                 "owner", "request", "member", "issued")

    def __init__(self, kind: str, seq: int = -1, sector: int = 0,
                 nsectors: int = 0, data: bytes = b"", ordered: bool = False,
                 owner: str = "", request: "Any | None" = None,
                 member: int = 0, issued: int = 0):
        self.kind = kind
        self.seq = seq
        self.sector = sector
        self.nsectors = nsectors
        self.data = data
        self.ordered = ordered
        self.owner = owner
        self.request = request
        self.member = member
        self.issued = issued

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<JournalEvent m{self.member} {self.kind} seq={self.seq} "
                f"sec={self.sector}+{self.nsectors}>")


class TrackBuffer:
    """Look-ahead read buffer state.

    After a media read finishing at linear sector ``fill_start - 1``, the
    controller keeps streaming: it reads forward across track and cylinder
    boundaries (paying head-switch/skew gaps), as real look-ahead buffers
    do, until the head is moved by an unrelated access.  ``lookahead_tracks``
    bounds how far ahead the buffer is allowed to get (its capacity).

    ``availability(sector)`` is the simulated time the sector is fully in
    the buffer; a consumer reading sequentially therefore streams at the
    media rate with no rotational misses — the mechanism that makes
    clustered reads faster than clustered writes in the paper's figure 10.
    """

    def __init__(self, geometry: DiskGeometry, lookahead_tracks: int = 2):
        self.geometry = geometry
        self.lookahead_tracks = lookahead_tracks
        self.valid = False
        self.fill_start = 0  # linear sector where the fill began
        self.base_time = 0.0  # time the fill started (fill_start under head)
        self.consumed = 0  # one past the last sector the host has taken

    def set(self, fill_start: int, base_time: float) -> None:
        """Start (or restart) look-ahead filling from ``fill_start``."""
        self.valid = True
        self.fill_start = fill_start
        self.base_time = base_time
        self.consumed = fill_start

    def consume(self, sector_end: int) -> None:
        """The host took sectors up to ``sector_end``; ring space freed."""
        self.consumed = max(self.consumed, sector_end)

    def invalidate(self) -> None:
        self.valid = False

    def _limit(self) -> int:
        # Ring semantics: the fill may run `capacity` ahead of whatever the
        # host has consumed, indefinitely, as long as the head stays put.
        cyl, _, _ = self.geometry.to_chs(self.fill_start)
        spt = self.geometry.sectors_per_track_at(cyl)
        capacity = self.lookahead_tracks * spt
        return min(max(self.consumed, self.fill_start) + capacity,
                   self.geometry.total_sectors)

    def covers(self, sector: int) -> bool:
        """True if ``sector`` is within the (possibly future) fill range."""
        return self.valid and self.fill_start <= sector < self._limit()

    def availability(self, sector: int) -> float:
        """Time at which ``sector`` is fully buffered.

        The fill streams at one sector time per sector, plus a skew gap at
        every track boundary it crosses (the same gaps a media transfer
        pays).
        """
        if not self.covers(sector):
            raise ValueError(f"sector {sector} is not in the buffered range")
        geom = self.geometry
        cyl0, head0, _ = geom.to_chs(self.fill_start)
        cyl1, head1, _ = geom.to_chs(sector)
        spt = geom.sectors_per_track_at(cyl0)
        st = geom.rotation_time / spt
        track0 = cyl0 * geom.heads + head0
        track1 = cyl1 * geom.heads + head1
        boundaries = track1 - track0
        skew_gap = geom.track_skew * st
        delta = sector - self.fill_start + 1
        # Cylinder boundaries cost the (larger) cylinder skew.
        cyl_boundaries = cyl1 - cyl0
        track_boundaries = boundaries - cyl_boundaries
        cyl_gap = geom.cyl_skew * st
        return (self.base_time + delta * st
                + track_boundaries * skew_gap + cyl_boundaries * cyl_gap)


class RotationalDisk:
    """A rotational disk with real data, real angles, and a track buffer."""

    def __init__(self, engine: "Engine", metrics: "MetricsRegistry", ns: str,
                 geometry: DiskGeometry | None = None,
                 store: DiskStore | None = None,
                 track_buffer: bool = True,
                 bus_rate: float = 2.5 * MB,
                 controller_overhead: float = 0.7 * MS,
                 buffer_hit_overhead: float = 0.3 * MS,
                 fault_plan: "FaultPlan | None" = None,
                 write_cache: "VolatileWriteCache | None" = None,
                 member: int = 0):
        self.engine = engine
        self.geometry = geometry if geometry is not None else DiskGeometry.ibm_400mb()
        self.store = store if store is not None else DiskStore(
            self.geometry.total_sectors, self.geometry.sector_size
        )
        if self.store.total_sectors != self.geometry.total_sectors:
            raise ValueError("store size does not match geometry")
        self.has_track_buffer = track_buffer
        self.bus_rate = bus_rate
        self.controller_overhead = controller_overhead
        self.buffer_hit_overhead = buffer_hit_overhead
        self.track_buffer = TrackBuffer(self.geometry)
        #: Optional injected fault schedule (see repro.faults.FaultPlan).
        self.fault_plan = fault_plan
        #: Optional volatile write cache (see repro.disk.wcache); None keeps
        #: the paper's write-through semantics.
        self.write_cache = write_cache
        #: Optional integrity region (repro.integrity.checksum): reads are
        #: verified and writes stamped against it.  See attach_integrity.
        self.integrity = None
        #: When a list, every durability-relevant event is appended to it
        #: (the crash-point explorer's recording hook); None = no journal.
        self.journal: "list[JournalEvent] | None" = None
        #: This drive's index in its volume, stamped on its journal events.
        self.member = member
        self.stats = metrics.counters(ns)
        self._cyl = 0
        self._head = 0

    def attach_integrity(self, region: "Any | None" = None) -> "Any | None":
        """Attach (or discover on the store) an integrity region; from
        here on every read is verified and every media write stamped."""
        if region is None:
            region = self.store.integrity_region()
        self.integrity = region
        return region

    def service(self, buf: Buf) -> Generator[Event, Any, None]:
        """Service one request; advances simulated time.  Driver-only API."""
        engine = self.engine
        geom = self.geometry
        buf.started_at = engine.now
        issued = len(self.journal) if self.journal is not None else 0
        self.stats.incr("requests")
        if buf.is_flush:
            self.stats.incr("flushes")
        else:
            self.stats.incr("reads" if buf.is_read else "writes")
            self.stats.incr("sectors", buf.nsectors)

        if self.fault_plan is not None:
            # Latent rot develops while the machine runs, independent of
            # what request happens to be in service.
            self.fault_plan.apply_due_bitrot(self.store, engine.now)
            decision = self.fault_plan.decide(buf, engine.now)
            if decision is not None:
                yield from self._fail(buf, decision)

        if buf.is_flush:
            yield from engine.sleep(self.controller_overhead)
            yield from self._service_flush(buf)
            return

        cache = self.write_cache
        cached = cache is not None and buf.is_write and not buf.fua

        if buf.is_write and not cached:
            # The head moves and look-ahead stops; be conservative.  (A
            # cached write never touches the media here, so look-ahead
            # survives it — one of the ways a volatile cache "helps".)
            self.track_buffer.invalidate()

        # Per-request controller/command overhead.
        yield from engine.sleep(self.controller_overhead)

        sector = buf.sector
        remaining = buf.nsectors
        if sector + remaining > geom.total_sectors:
            raise ValueError(
                f"request [{sector}, {sector + remaining}) beyond end of disk"
            )

        if cached:
            assert cache is not None and buf.data is not None
            if len(buf.data) != buf.nbytes:
                raise ValueError(
                    f"write buf data length {len(buf.data)} != {buf.nbytes}"
                )
            # The forbidden fast ack: bus transfer only, no media time.
            buf.xfer_time += buf.nbytes / self.bus_rate
            yield from engine.sleep(buf.nbytes / self.bus_rate)
            entry = cache.write(buf)
            self._journal("write", entry, entry.seq)
            self.stats.incr("cached_writes")
            # Capacity pressure destages oldest-first, charged to this
            # request (the drive stalls the host while it makes room).
            while cache.over_limit:
                yield from self._destage_head(buf)
            return

        first_segment = True
        while remaining > 0:
            if (
                buf.is_read
                and self.has_track_buffer
                and self.track_buffer.covers(sector)
            ):
                # Stream from the (still filling) look-ahead buffer; the
                # run may cross track boundaries, as the fill does.
                run = min(remaining, self.track_buffer._limit() - sector)
                yield from self._buffer_read(buf, sector, run, first_segment)
                cyl, head, _ = geom.to_chs(sector + run - 1)
            else:
                cyl, head, idx = geom.to_chs(sector)
                spt = geom.sectors_per_track_at(cyl)
                run = min(remaining, spt - idx)
                yield from self._media_access(buf, cyl, head, idx, run)
                if buf.is_read and self.has_track_buffer:
                    # The fill begins where this media read began.
                    transfer = run * geom.sector_time(cyl)
                    self.track_buffer.set(sector, engine.now - transfer)
            self._cyl, self._head = cyl, head
            sector += run
            remaining -= run
            first_segment = False

        # Data plane: move the real bytes.
        if buf.is_read:
            buf.data = self.read_through(buf.sector, buf.nsectors)
            if self.integrity is not None:
                bad = self.integrity.verify_range(buf.sector, buf.data,
                                                  cache=cache)
                if bad:
                    frag, reason = bad[0]
                    self.stats.incr("checksum_failures", len(bad))
                    raise ChecksumError(
                        f"{reason} mismatch at fragment {frag} "
                        f"(read [{buf.sector}, {buf.sector + buf.nsectors}))",
                        sector=frag * self.integrity.frag_sectors,
                        frag=frag, reason=reason)
        else:
            assert buf.data is not None
            if len(buf.data) != buf.nbytes:
                raise ValueError(
                    f"write buf data length {len(buf.data)} != {buf.nbytes}"
                )
            plan = self.fault_plan
            silent = plan.decide_silent(buf, engine.now) if plan is not None \
                else None
            if silent == "lost":
                # Acknowledged, never reaches the media.
                self.stats.incr("silent_lost_writes")
            elif silent == "misdirect":
                # The bytes land at the wrong LBA; both the intended and
                # the victim location now disagree with the record table.
                target = buf.sector + plan.misdirect_shift
                target = max(0, min(target,
                                    self.store.total_sectors - buf.nsectors))
                self.store.write(target, buf.data)
                self.stats.incr("silent_misdirected_writes")
            elif silent == "torn_tail":
                # The tail of the transfer is quietly dropped (at least
                # one sector), as a firmware bug or cut cable would.
                keep = buf.nsectors - max(1, buf.nsectors // 4)
                if keep > 0:
                    self.store.write(buf.sector,
                                     buf.data[:keep * geom.sector_size])
                self.stats.incr("silent_torn_writes")
            else:
                self.store.write(buf.sector, buf.data)
            # The drive believes the write succeeded (that is what makes
            # the fault silent), so the *intended* range is stamped either
            # way — the stale or misplaced bytes are what a later read's
            # verification catches.
            if self.integrity is not None:
                self.integrity.stamp_range(buf.sector, buf.data,
                                           buf.integrity_owner)
            if cache is not None:
                cache.note_fua()
            self._journal("fua", buf, issued=issued)

    def read_through(self, sector: int, nsectors: int) -> bytes:
        """The drive-visible bytes: durable store plus the volatile cache
        overlay.  Pure data plane (no timing) — also the view the sanitizer
        uses for coherency checks."""
        data = self.store.read(sector, nsectors)
        if self.write_cache is not None:
            data = self.write_cache.overlay(sector, nsectors, data)
        return data

    # -- internals ------------------------------------------------------------
    def _journal(self, kind: str, io: Any = None, seq: int = -1,
                 issued: int = 0) -> None:
        """Append one event to the journal, if one is being kept; ``io`` is
        the buf or cache entry the event moves the bytes of."""
        if self.journal is None:
            return
        if io is None:
            self.journal.append(JournalEvent(kind, member=self.member))
        else:
            self.journal.append(JournalEvent(
                kind, seq, io.sector, io.nsectors, bytes(io.data),
                io.ordered, io.owner, io.request, self.member, issued))

    def _destage_head(self, host_buf: Buf) -> Generator[Event, Any, None]:
        """Write the cache's oldest entry to the media (real media time,
        charged to ``host_buf``'s service), then commit it durable."""
        cache = self.write_cache
        assert cache is not None and cache.entries
        geom = self.geometry
        entry = cache.entries[0]
        self.track_buffer.invalidate()
        sector = entry.sector
        remaining = entry.nsectors
        while remaining > 0:
            cyl, head, idx = geom.to_chs(sector)
            spt = geom.sectors_per_track_at(cyl)
            run = min(remaining, spt - idx)
            yield from self._media_access(host_buf, cyl, head, idx, run)
            self._cyl, self._head = cyl, head
            sector += run
            remaining -= run
        cache.destage_head()
        self._journal("destage", entry, entry.seq)
        if self.integrity is not None:
            # Volatile writes become checksummed reality only now: the
            # destage is the point the media (and the record table) see
            # the bytes.
            self.integrity.stamp_range(entry.sector, entry.data,
                                       entry.integrity_owner)

    def _service_flush(self, buf: Buf) -> Generator[Event, Any, None]:
        """Drain the volatile cache to the media, oldest entry first."""
        cache = self.write_cache
        if cache is not None:
            while cache.entries:
                yield from self._destage_head(buf)
            cache.note_flush()
        self._journal("flush")

    def _fail(self, buf: Buf, decision: Any) -> Generator[Event, Any, None]:
        """Charge the time an injected failure costs, then raise its error."""
        from repro.faults.plan import FaultKind

        engine = self.engine
        self.stats.incr("faulted_requests")
        if decision.kind is FaultKind.DEAD:
            # The electronics are dead: instant failure, volatile cache gone.
            if self.write_cache is not None and self.write_cache.entries:
                lost = self.write_cache.drop_all()
                self.stats.incr("cache_dropped_bytes", lost)
                self._journal("drop")
            raise decision.error
        if decision.kind is FaultKind.TIMEOUT:
            # The controller goes silent; the request hangs before the
            # driver sees the failure.
            if decision.hang > 0:
                yield from engine.sleep(decision.hang)
            raise decision.error
        if decision.kind is FaultKind.MEDIA:
            # The drive retried internally (a rotation's worth) and gave up.
            yield from engine.sleep(self.controller_overhead
                                    + self.geometry.rotation_time)
            raise decision.error
        # Transient: the command was issued and failed quickly.
        yield from engine.sleep(self.controller_overhead)
        raise decision.error

    def _buffer_read(self, buf: Buf, sector: int, run: int,
                     first_segment: bool) -> Generator[Event, Any, None]:
        """Serve ``run`` sectors from the (possibly still filling) buffer."""
        engine = self.engine
        tb = self.track_buffer
        self.stats.incr("buffer_hits")
        self.stats.incr("buffer_sectors", run)
        bus_time = run * self.geometry.sector_size / self.bus_rate
        if first_segment:
            bus_time += self.buffer_hit_overhead
        available_at = tb.availability(sector + run - 1)
        finish = max(engine.now + bus_time, available_at)
        wait = finish - engine.now
        fill_wait = max(0.0, available_at - engine.now - bus_time)
        self.stats.incr("buffer_fill_wait", fill_wait)
        buf.xfer_time += bus_time
        # Waiting for the platter to rotate sectors into the buffer is
        # rotational time, even though the head never moved.
        buf.seek_rot_time += fill_wait
        tb.consume(sector + run)
        if wait > 0:
            yield from engine.sleep(wait)

    def _media_access(self, buf: Buf, cyl: int, head: int, idx: int,
                      run: int) -> Generator[Event, Any, None]:
        """Seek/switch/rotate/transfer ``run`` sectors on one track."""
        engine = self.engine
        geom = self.geometry
        self.stats.incr("media_accesses")
        if cyl != self._cyl:
            # seek_min already includes head settle, so no separate switch.
            seek = geom.seek_time(self._cyl, cyl)
            self.stats.incr("seeks")
            self.stats.incr("seek_time", seek)
            buf.seek_rot_time += seek
            yield from engine.sleep(seek)
        elif head != self._head:
            self.stats.incr("head_switches")
            buf.seek_rot_time += geom.head_switch_time
            yield from engine.sleep(geom.head_switch_time)
        wait = geom.rotational_wait(engine.now, cyl, head, idx)
        self.stats.incr("rotational_wait", wait)
        transfer = run * geom.sector_time(cyl)
        self.stats.incr("transfer_time", transfer)
        buf.seek_rot_time += wait
        buf.xfer_time += transfer
        yield from engine.sleep(wait + transfer)
        # (The service loop restarts the look-ahead fill for reads.)
