"""The volume manager: a pluggable block-device layer over member disks.

The kernel above the driver boundary speaks to *one* block device: it calls
``strategy(buf)`` with linear sector addresses and waits on ``buf.done``.
This module keeps that contract while letting the device be built from
several spindles:

* :class:`SingleVolume` — today's one-disk stack, byte-identical (the
  member's :class:`~repro.disk.driver.DiskDriver` *is* the device);
* :class:`StripeVolume` — RAID-0: logical space dealt round-robin in
  ``chunk``-sized stripes, so one clustered request fans out and the
  member transfers overlap in simulated time; with the member as the
  chunk it is ``concat``, members appended end to end (JBOD);
* :class:`MirrorVolume` — RAID-1: every write goes to all live members,
  reads are balanced (round-robin or shortest-queue), a dead member
  degrades the volume instead of failing it, and :meth:`MirrorVolume.
  resync` copies a survivor onto a replaced member.

Each member keeps its own :class:`~repro.disk.store.DiskStore`,
:class:`~repro.disk.disk.RotationalDisk`, :class:`~repro.disk.driver.
DiskDriver` (queue + scheduler), optional :class:`~repro.disk.wcache.
VolatileWriteCache`, and :class:`~repro.faults.plan.FaultPlan` — faults and
queueing are per spindle, exactly as on real hardware.

Barrier semantics: a FLUSH fans out to every live member that has a
volatile cache and is durable only when every one of them acks (a mirror
tolerates dead members: the survivors' acks are the durability point).
``ordered`` data writes remain barriers *within* each member's queue; the
volume does not serialize unrelated members against each other.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable, Iterator

from repro.disk.buf import Buf, BufOp
from repro.disk.disk import RotationalDisk
from repro.disk.driver import BlockDevice, DiskDriver
from repro.disk.geometry import DiskGeometry, Zone
from repro.disk.store import DiskStore, SectorImage
from repro.core.health import ClusterHealth
from repro.errors import InvalidArgumentError, MemberDeadError
from repro.sim.events import Event
from repro.units import KB, SECTOR_SIZE

if TYPE_CHECKING:  # pragma: no cover
    from repro.cpu import Cpu
    from repro.faults.plan import FaultPlan
    from repro.integrity.checksum import IntegrityRegion
    from repro.kernel.config import SystemConfig
    from repro.obs.metrics import MetricsRegistry
    from repro.sim.engine import Engine


# ---------------------------------------------------------------------------
# layout specification


def _parse_size(text: str) -> int:
    text = text.strip().lower()
    mult = 1
    if text.endswith("k"):
        mult, text = KB, text[:-1]
    elif text.endswith("m"):
        mult, text = KB * KB, text[:-1]
    try:
        return int(text) * mult
    except ValueError:
        raise InvalidArgumentError(f"bad size {text!r} in volume spec") from None


#: The one option each kind takes (``single`` and ``concat`` take none).
_KIND_OPTION = {"stripe": "chunk", "mirror": "read"}


@dataclasses.dataclass(frozen=True)
class VolumeSpec:
    """A parsed ``--layout`` string: what to build over how many members.

    Syntax: ``single`` | ``concat:N`` | ``stripe:N[:chunk=64k]`` |
    ``mirror:N[:read=rr|shortest]``.
    """

    kind: str = "single"
    nmembers: int = 1
    chunk_bytes: int = 64 * KB
    read_policy: str = "rr"

    @classmethod
    def parse(cls, text: "str | VolumeSpec | None") -> "VolumeSpec":
        if text is None:
            return cls()
        if isinstance(text, VolumeSpec):
            return text
        parts = [p for p in text.strip().lower().split(":") if p]
        if not parts:
            return cls()
        kind = parts[0]
        if kind not in ("single", "concat", "stripe", "mirror"):
            raise InvalidArgumentError(f"unknown volume kind {kind!r}")
        nmembers = 1
        rest = parts[1:]
        if rest and "=" not in rest[0]:
            try:
                nmembers = int(rest[0])
            except ValueError:
                raise InvalidArgumentError(
                    f"bad member count {rest[0]!r} in volume spec") from None
            rest = rest[1:]
        elif kind != "single":
            raise InvalidArgumentError(f"{kind} layout needs a member count")
        chunk_bytes = 64 * KB
        read_policy = "rr"
        for opt in rest:
            key, _, value = opt.partition("=")
            if key not in _KIND_OPTION.values():
                raise InvalidArgumentError(f"unknown volume option {key!r}")
            if key != _KIND_OPTION.get(kind):
                raise InvalidArgumentError(
                    f"option {key!r} does not apply to a {kind} layout")
            if key == "chunk":
                chunk_bytes = _parse_size(value)
            elif value in ("rr", "shortest"):
                read_policy = value
            else:
                raise InvalidArgumentError(
                    f"unknown mirror read policy {value!r}")
        if kind == "single":
            if nmembers != 1:
                raise InvalidArgumentError("single layout has exactly 1 member")
        elif nmembers < 2:
            raise InvalidArgumentError(f"{kind} layout needs >= 2 members")
        if chunk_bytes <= 0 or chunk_bytes % SECTOR_SIZE != 0:
            raise InvalidArgumentError(
                f"chunk {chunk_bytes} must be a positive sector multiple")
        return cls(kind=kind, nmembers=nmembers, chunk_bytes=chunk_bytes,
                   read_policy=read_policy)

    def describe(self) -> str:
        if self.kind == "single":
            return "single"
        out = f"{self.kind}:{self.nmembers}"
        if self.kind == "stripe":
            # Exact, so parse(describe()) is the same spec: ``k`` only for
            # a whole number of KB.
            kb, odd = divmod(self.chunk_bytes, KB)
            out += f":chunk={self.chunk_bytes}" if odd else f":chunk={kb}k"
        if self.kind == "mirror":
            out += f":read={self.read_policy}"
        return out


def concat_geometry(geom: DiskGeometry, n: int) -> DiskGeometry:
    """The logical geometry of ``n`` concatenated copies of ``geom``: the
    zones tiled ``n`` times over a cylinder range ``n`` times as long, so
    linear sector arithmetic, zone boundaries, and per-zone transfer rates
    carry over to the logical device."""
    zones: list[Zone] = []
    cyl = 0
    for _ in range(n):
        for z in geom.zones:
            zones.append(Zone(cyl, cyl + z.cylinders - 1, z.sectors_per_track))
            cyl += z.cylinders
    return dataclasses.replace(geom, zones=tuple(zones))


# ---------------------------------------------------------------------------
# members


class VolumeMember:
    """One spindle of a volume: its own store, disk, queue, and faults;
    its driver, mechanism and (if any) write cache report under ``ns``."""

    def __init__(self, engine: "Engine", metrics: "MetricsRegistry", ns: str,
                 index: int, config: "SystemConfig",
                 cpu: "Cpu | None" = None,
                 store: "DiskStore | None" = None,
                 fault_plan: "FaultPlan | None" = None):
        cfg = config
        self.index = index
        self.name = f"sd{index}"
        self.store = store if store is not None else DiskStore(
            cfg.geometry.total_sectors, cfg.geometry.sector_size)
        self.fault_plan = fault_plan
        write_cache = None
        if cfg.write_cache:
            from repro.disk.wcache import VolatileWriteCache

            write_cache = VolatileWriteCache(
                metrics, f"{ns}.wcache", self.store, cfg.write_cache_bytes,
                sector_size=cfg.geometry.sector_size)
        self.write_cache = write_cache
        self.disk = RotationalDisk(engine, metrics, f"{ns}.mech",
                                   cfg.geometry, self.store,
                                   track_buffer=cfg.track_buffer,
                                   fault_plan=fault_plan,
                                   write_cache=write_cache, member=index)
        self.driver = DiskDriver(engine, metrics, f"{ns}.driver", self.disk,
                                 cpu=cpu, coalesce=cfg.driver_coalesce,
                                 scheduler=cfg.scheduler, name=self.name)
        #: Consecutive-failure state machine; ``degraded`` (or a
        #: MemberDeadError) fails the member out of a mirror.
        self.health = ClusterHealth(threshold=2)
        self.failed = False
        #: Excluded from mirror *reads* while a resync copies onto it
        #: (writes already include it, so it cannot fall further behind).
        self.resyncing = False

    @property
    def live(self) -> bool:
        return not self.failed


# ---------------------------------------------------------------------------
# the single-disk facade (the default — today's stack, unchanged)


class SingleVolume:
    """Facade over the classic one-disk stack.

    The member's :class:`DiskDriver` is the device and the member's disk,
    store, and cache are used directly — construction order and object
    identity match the pre-volume ``System`` exactly, which is what keeps
    the default layout byte- and digest-identical.
    """

    kind = "single"

    def __init__(self, member: VolumeMember):
        self.members = [member]
        self.spec = VolumeSpec()

    @property
    def geometry(self) -> DiskGeometry:
        return self.members[0].disk.geometry

    @property
    def store(self) -> DiskStore:
        return self.members[0].store

    @property
    def disk(self) -> RotationalDisk:
        return self.members[0].disk

    @property
    def device(self) -> DiskDriver:
        return self.members[0].driver

    def describe(self) -> str:
        return "single"


# ---------------------------------------------------------------------------
# logical views: store, cache, integrity


class VolumeStore(SectorImage):
    """Data-plane view of a multi-member volume as one sparse sector array.

    Mirrors write every member and read the first live one; stripes and
    concats translate piecewise.  Offline tools (mkfs, fsck, the crash
    differ) use this exactly like a :class:`DiskStore`.
    """

    def __init__(self, volume: "MultiVolume"):
        self.volume = volume
        self.total_sectors = volume.logical_sectors
        self.sector_size = volume.members[0].store.sector_size

    def read(self, sector: int, count: int) -> bytes:
        self._check_range(sector, count)
        vol = self.volume
        parts = [vol.members[mi].store.read(msec, cnt)
                 for mi, msec, cnt in vol.pieces(sector, count)]
        return b"".join(parts)

    def write(self, sector: int, data: bytes) -> None:
        self._check_write(sector, data)
        vol = self.volume
        ss = self.sector_size
        off = 0
        for mi, msec, cnt in vol.pieces(sector, len(data) // ss):
            for copy in vol.copies(mi):
                vol.members[copy].store.write(msec, data[off:off + cnt * ss])
            off += cnt * ss

    def clone(self) -> DiskStore:
        """An independent single-store snapshot of the logical bytes."""
        dup = DiskStore(self.total_sectors, self.sector_size)
        for sector, data in self.iter_nonzero():
            dup.write(sector, data)
        return dup

    def iter_nonzero(self) -> "Iterator[tuple[int, bytes]]":
        """The members' non-zero sectors at their logical addresses (same
        form as :meth:`DiskStore.iter_nonzero`, so equal logical bytes hash
        equal); where mirror members overlap, the one reads go to wins."""
        vol = self.volume
        image: dict[int, bytes] = {}
        for member in reversed(vol.data_source_members()):
            for msec, data in member.store.iter_nonzero():
                image[vol.logical_of(member.index, msec)] = data
        return iter(sorted(image.items()))


class VolumeCacheView:
    """Read-only logical view over the members' volatile write caches —
    just enough surface (truthiness + ``covers``) for the read-verify and
    sanitizer paths that ask "could this logical range be volatile?"."""

    def __init__(self, volume: "MultiVolume"):
        self.volume = volume

    def covers(self, sector: int, nsectors: int) -> bool:
        vol = self.volume
        sources = vol.data_source_members()
        for mi, msec, cnt in vol.pieces(sector, nsectors):
            holders = vol.copies(mi)
            for member in sources:
                cache = member.write_cache
                if (member.index in holders and cache is not None
                        and cache.covers(msec, cnt)):
                    return True
        return False


class _MemberCacheAdapter:
    """Translates the integrity region's *logical* ``covers`` probes back
    into one member's cache addresses (used during member read verify):
    within one piece of the map the two differ by a constant ``shift``."""

    def __init__(self, cache, shift: int):
        self.cache = cache
        self.shift = shift

    def covers(self, sector: int, nsectors: int) -> bool:
        return self.cache.covers(sector + self.shift, nsectors)


class MemberIntegrityView:
    """One member's window onto the volume's logical integrity region.

    The region is addressed by *logical* fragment; a member disk services
    bufs with *member* sector addresses.  This view translates each member
    range to its logical pieces and delegates stamping/verification to the
    shared region, adjusting the ``(inode, lbn)`` owner per piece (pieces
    beyond the first sit whole blocks later in the file iff the gap is
    block-aligned; otherwise the restamp keeps the old attribution).
    """

    def __init__(self, region: "IntegrityRegion", volume: "MultiVolume",
                 index: int):
        self.region = region
        self.volume = volume
        self.index = index
        self.frag_sectors = region.frag_sectors

    def _piece_owner(self, owner, first_lsec: int, lsec: int):
        if owner is None or lsec == first_lsec:
            return owner
        delta = lsec - first_lsec
        bs = self.region.block_sectors
        if delta % bs != 0:
            return None
        return (owner[0], owner[1] + delta // bs)

    def stamp_range(self, sector: int, data: bytes, owner=None) -> int:
        ss = SECTOR_SIZE
        pieces = self.volume.member_to_logical(
            self.index, sector, len(data) // ss)
        first_lsec = pieces[0][0]
        stamped = 0
        for lsec, off, cnt in pieces:
            stamped += self.region.stamp_range(
                lsec, data[off * ss:(off + cnt) * ss],
                self._piece_owner(owner, first_lsec, lsec))
        return stamped

    def verify_range(self, sector: int, data: bytes,
                     cache=None) -> "list[tuple[int, str]]":
        ss = SECTOR_SIZE
        bad: list[tuple[int, str]] = []
        for lsec, off, cnt in self.volume.member_to_logical(
                self.index, sector, len(data) // ss):
            wrapped = None if cache is None else _MemberCacheAdapter(
                cache, sector + off - lsec)
            bad.extend(self.region.verify_range(
                lsec, data[off * ss:(off + cnt) * ss], cache=wrapped))
        return bad


# ---------------------------------------------------------------------------
# the multi-member device


class _JoinState:
    """Book-keeping for one fanned-out parent buf until all children ack."""

    __slots__ = ("parent", "pending", "error", "first_start", "ok", "tried",
                 "buffer")

    def __init__(self, parent: Buf):
        self.parent = parent
        self.pending = 0
        self.error: "BaseException | None" = None
        self.first_start: "float | None" = None
        self.ok = 0
        self.tried: set[int] = set()
        self.buffer: "bytearray | None" = (
            bytearray(parent.nbytes) if parent.is_read else None)


class MultiVolume(BlockDevice):
    """Shared machinery of concat/stripe/mirror: the block device that
    splits parent bufs into member children and joins completions, and the
    logical disk behind it — geometry spanning the members, the logical
    store, the shared integrity region.

    The volume has no service process of its own — ``strategy`` fans out
    synchronously and the join runs in the children's completion hooks, so
    member I/Os overlap exactly as their own queues and spindles allow.
    """

    kind = "multi"
    #: Redundant volumes (mirrors) survive member write/flush failures.
    redundant = False
    #: Per-member plans live on the member disks; the logical device has
    #: none (driver-level remap consults members individually).
    fault_plan = None

    def __init__(self, engine: "Engine", metrics: "MetricsRegistry",
                 members: "list[VolumeMember]", spec: VolumeSpec,
                 geometry: DiskGeometry):
        # The fan-out/join layer's books; member i's stack is ``disk.m{i}``.
        super().__init__(engine, metrics, "volume", "vol0")
        self.members = members
        self.spec = spec
        self.geometry = geometry
        self.logical_sectors = self._logical_sectors()
        self.store = VolumeStore(self)
        #: The kernel talks to the volume itself, as device and as disk.
        self.device = self.disk = self
        self.integrity: "IntegrityRegion | None" = None
        self._cache_view = VolumeCacheView(self)

    # -- the address map (subclasses) --------------------------------------
    def _logical_sectors(self) -> int:
        raise NotImplementedError

    def pieces(self, sector: int,
               nsectors: int) -> "list[tuple[int, int, int]]":
        """``(member, member_sector, count)`` pieces of a logical range, in
        logical order, unmerged; a mirror names the member reads go to."""
        raise NotImplementedError

    def member_to_logical(self, index: int, msector: int,
                          nsectors: int) -> "list[tuple[int, int, int]]":
        """The inverse: ``(logical_sector, offset_in_member_range, count)``
        pieces of a member range, in ascending member order."""
        raise NotImplementedError

    def copies(self, index: int) -> "Iterable[int]":
        """The members holding what member ``index`` holds (itself
        included): every data-plane write to one goes to all of them."""
        return (index,)

    def data_source_members(self) -> "list[VolumeMember]":
        """Members whose stores define the logical contents."""
        return self.members

    # -- derived from the map ----------------------------------------------
    def logical_of(self, index: int, msector: int) -> int:
        """The logical address of one member sector."""
        return self.member_to_logical(index, msector, 1)[0][0]

    def extents(self, sector: int, nsectors: int,
                write: bool) -> "list[tuple[int, int, int]]":
        """Timed-path mapping: ``(member, member_sector, count)`` per child
        buf — each member's adjacent pieces merged into one transfer, so a
        spindle streams its share.  (A mirror overrides this with its
        read-balancing / all-live-member-writes policy.)"""
        per_member: dict[int, list[list[int]]] = {}
        for mi, msec, cnt in self.pieces(sector, nsectors):
            runs = per_member.setdefault(mi, [])
            if runs and runs[-1][0] + runs[-1][1] == msec:
                runs[-1][1] += cnt
            else:
                runs.append([msec, cnt])
        return [(mi, msec, cnt)
                for mi, runs in per_member.items() for msec, cnt in runs]

    # -- disk-shaped surface -----------------------------------------------
    @property
    def write_cache(self) -> "VolumeCacheView | None":
        """A logical cache view when any member caches writes, else None —
        the truthiness contract ``ufs.io`` keys its flush decisions on."""
        if any(m.write_cache is not None for m in self.members):
            return self._cache_view
        return None

    def read_through(self, sector: int, nsectors: int) -> bytes:
        """The drive-visible bytes (volatile cache entries overlaid),
        assembled from the members."""
        parts = [self.members[mi].disk.read_through(msec, cnt)
                 for mi, msec, cnt in self.pieces(sector, nsectors)]
        return b"".join(parts)

    def attach_integrity(self, region: "IntegrityRegion | None" = None):
        """Find (or accept) the region on the *logical* store and install a
        translated view on every member disk, so member-level reads verify
        and member-level writes stamp against the shared table."""
        if region is None:
            region = self.store.integrity_region()
        self.integrity = region
        for member in self.members:
            member.disk.integrity = (
                None if region is None
                else MemberIntegrityView(region, self, member.index))
        if (region is not None and self.kind == "stripe"
                and self.chunk_sectors % region.frag_sectors != 0):
            raise InvalidArgumentError(
                f"stripe chunk of {self.chunk_sectors} sectors does not "
                f"align with {region.frag_sectors}-sector fragments")
        return region

    # -- driver-shaped surface ---------------------------------------------
    @property
    def scheduler_name(self) -> str:
        return self.members[0].driver.scheduler_name

    @property
    def idle(self) -> bool:
        return not self.outstanding and all(
            m.driver.idle for m in self.members)

    def check_buf_balance(self, point: str, fail: Callable[..., None],
                          label: str = "driver") -> None:
        """The sanitizer's ``buf_balance`` check of the volume's own books,
        then of every member's driver under the member's name."""
        self._check_books(point, fail, label,
                          sum(len(m.driver.queue) for m in self.members),
                          any(m.driver.busy for m in self.members))
        for member in self.members:
            member.driver.check_buf_balance(point, fail, member.name)

    def describe(self) -> str:
        return self.spec.describe()

    def strategy(self, buf: Buf) -> Buf:
        self._accept(buf)
        self.queue_depth.set(len(self.outstanding))
        if buf.is_flush:
            self._fan_flush(buf)
        else:
            self._fan_out(buf)
        return buf

    def drain(self) -> Event:
        """An event that triggers once the whole volume goes idle."""
        ev = Event(self.engine, name=f"{self.name}.drain")
        if self.idle:
            ev.succeed()
            return ev

        def _wait() -> Generator[Any, Any, None]:
            while not self.idle:
                for member in self.members:
                    if not member.driver.idle:
                        yield member.driver.drain()
                        break
                else:
                    # Members are idle; outstanding parents complete inside
                    # member completions, so this settles next tick.
                    yield self.engine.timeout(0)
            ev.succeed()

        self.engine.process(_wait(), name=f"{self.name}.drain")
        return ev

    # -- fan-out -----------------------------------------------------------
    def _fan_out(self, parent: Buf) -> None:
        write = parent.is_write
        extents = self.extents(parent.sector, parent.nsectors, write=write)
        if not extents:
            self._finish_parent(parent, _JoinState(parent), all_dead=True)
            return
        state = _JoinState(parent)
        state.tried.update(mi for mi, _, _ in extents)
        children: list[tuple[VolumeMember, Buf]] = []
        ss = SECTOR_SIZE
        for mi, msec, cnt in extents:
            data = None
            if write:
                assert parent.data is not None
                out = bytearray(cnt * ss)
                for lsec, off, n in self.member_to_logical(mi, msec, cnt):
                    src = (lsec - parent.sector) * ss
                    out[off * ss:(off + n) * ss] = \
                        parent.data[src:src + n * ss]
                data = bytes(out)
            child = Buf(self.engine, parent.op, msec, cnt, data=data,
                        async_=True, ordered=parent.ordered, fua=parent.fua,
                        owner=parent.owner)
            child.member = mi
            child.request = parent.request
            child.parent_span = parent.parent_span
            if write:
                child.integrity_owner = self._child_owner(parent, mi, msec)
            children.append((self.members[mi], child))
        # Member transfers carry the request from here on: span labeling
        # and per-request I/O accounting see the fan-out, not the parent.
        parent.request = None
        state.pending = len(children)
        self.stats.incr("fanout_children", len(children))
        for member, child in children:
            child.iodone.append(self._join_hook(state, member))
            member.driver.strategy(child)

    def _child_owner(self, parent: Buf, mi: int, msec: int):
        owner = parent.integrity_owner
        region = self.integrity
        if owner is None or region is None:
            return None
        first_lsec = self.logical_of(mi, msec)
        delta = first_lsec - parent.sector
        if (parent.sector % region.frag_sectors != 0
                or delta % region.block_sectors != 0):
            return None
        return (owner[0], owner[1] + delta // region.block_sectors)

    def _fan_flush(self, parent: Buf) -> None:
        live = [m for m in self.members if m.live]
        if not live:
            self._finish_parent(parent, _JoinState(parent), all_dead=True)
            return
        targets = [m for m in live if m.write_cache is not None]
        state = _JoinState(parent)
        if not targets:
            # Every live member is write-through: already durable.
            self._finish_parent(parent, state)
            return
        state.pending = len(targets)
        for member in targets:
            child = Buf.flush(self.engine, owner=parent.owner)
            child.member = member.index
            child.request = parent.request
            child.parent_span = parent.parent_span
            child.iodone.append(self._join_hook(state, member))
            member.driver.stats.incr("flushes")
            member.driver.strategy(child)
        parent.request = None

    # -- join --------------------------------------------------------------
    def _join_hook(self, state: _JoinState, member: VolumeMember):
        def hook(child: Buf) -> None:
            if child.started_at is not None:
                if (state.first_start is None
                        or child.started_at < state.first_start):
                    state.first_start = child.started_at
            if child.error is None:
                member.health.record_success()
                state.ok += 1
                if state.buffer is not None:
                    self._scatter(state, member.index, child)
            else:
                member.health.record_failure()
                if isinstance(child.error, MemberDeadError) \
                        or member.health.degraded:
                    self._mark_failed(member)
                if state.error is None:
                    state.error = child.error
                if self._retry_read(state, child):
                    return  # reissued on another member; still pending
            state.pending -= 1
            if state.pending == 0:
                self._finish_parent(state.parent, state)
        return hook

    def _scatter(self, state: _JoinState, mi: int, child: Buf) -> None:
        assert child.data is not None and state.buffer is not None
        ss = SECTOR_SIZE
        parent = state.parent
        for lsec, off, n in self.member_to_logical(mi, child.sector,
                                                   child.nsectors):
            dst = (lsec - parent.sector) * ss
            state.buffer[dst:dst + n * ss] = child.data[off * ss:(off + n) * ss]

    def _mark_failed(self, member: VolumeMember) -> None:
        if not member.failed:
            member.failed = True
            self.stats.incr("members_failed")

    def _retry_read(self, state: _JoinState, child: Buf) -> bool:
        """Redundant volumes re-aim a failed read at an untried live copy."""
        return False

    def _finish_parent(self, parent: Buf, state: _JoinState,
                       all_dead: bool = False) -> None:
        error: "BaseException | None" = None
        if all_dead:
            error = MemberDeadError(
                f"{self.describe()}: no live members for {parent!r}")
        elif state.error is not None:
            if self.redundant and not parent.is_read and state.ok > 0:
                # Degraded durability: the survivors hold the bytes.
                self.stats.incr("degraded_writes")
            else:
                error = state.error
        if parent.is_read and error is None and state.buffer is not None:
            parent.data = bytes(state.buffer)
        now = self.engine.now
        start = state.first_start if state.first_start is not None else now
        parent.started_at = start
        self.wait_hist.observe(start - parent.issued_at)
        self.service_hist.observe(now - start)
        self.stats.incr("completions")
        if error is not None:
            self.stats.incr("errors")
        self._settle(parent)
        self.queue_bytes.add(-parent.nbytes)
        self.queue_depth.set(len(self.outstanding))
        parent.complete(error)


class StripeVolume(MultiVolume):
    """RAID-0: chunks dealt round-robin, adjacent same-member chunks merged
    into one child transfer so each spindle streams its share.  ``concat``
    (members appended end to end) is the same map with one chunk per
    member: the chunk is the member."""

    def __init__(self, engine: "Engine", metrics: "MetricsRegistry",
                 members: "list[VolumeMember]", spec: VolumeSpec,
                 geometry: DiskGeometry):
        self.kind = spec.kind
        store = members[0].store
        self.chunk_sectors = (spec.chunk_bytes // store.sector_size
                              if spec.kind == "stripe" else store.total_sectors)
        if self.chunk_sectors <= 0:
            raise InvalidArgumentError("stripe chunk smaller than a sector")
        if members[0].store.total_sectors % self.chunk_sectors != 0:
            raise InvalidArgumentError(
                f"chunk of {self.chunk_sectors} sectors does not divide the "
                f"member size {members[0].store.total_sectors}")
        super().__init__(engine, metrics, members, spec, geometry)

    def _logical_sectors(self) -> int:
        return self.members[0].store.total_sectors * len(self.members)

    def pieces(self, sector, nsectors):
        chunk = self.chunk_sectors
        n = len(self.members)
        out = []
        while nsectors > 0:
            c, off = divmod(sector, chunk)
            run = min(nsectors, chunk - off)
            out.append((c % n, (c // n) * chunk + off, run))
            sector += run
            nsectors -= run
        return out

    def member_to_logical(self, index, msector, nsectors):
        chunk = self.chunk_sectors
        n = len(self.members)
        out = []
        off = 0
        while nsectors > 0:
            mc, coff = divmod(msector, chunk)
            run = min(nsectors, chunk - coff)
            out.append(((mc * n + index) * chunk + coff, off, run))
            msector += run
            off += run
            nsectors -= run
        return out


class MirrorVolume(MultiVolume):
    """RAID-1: identical members, balanced reads, degraded-mode survival."""

    kind = "mirror"
    redundant = True

    def __init__(self, engine: "Engine", metrics: "MetricsRegistry",
                 members: "list[VolumeMember]", spec: VolumeSpec,
                 geometry: DiskGeometry):
        self.read_policy = spec.read_policy
        self._rr = 0
        super().__init__(engine, metrics, members, spec, geometry)

    def _logical_sectors(self) -> int:
        return self.members[0].store.total_sectors

    def _read_candidates(self, exclude: "set[int]") -> "list[VolumeMember]":
        return [m for m in self.members
                if m.live and not m.resyncing and m.index not in exclude]

    def _pick_reader(self, exclude: "set[int]") -> "VolumeMember | None":
        cands = self._read_candidates(exclude)
        if not cands:
            return None
        if self.read_policy == "shortest":
            return min(cands, key=lambda m: (
                len(m.driver.queue) + (1 if m.driver.busy else 0), m.index))
        member = cands[self._rr % len(cands)]
        self._rr += 1
        return member

    def extents(self, sector, nsectors, write):
        if write:
            return [(m.index, sector, nsectors)
                    for m in self.members if m.live]
        member = self._pick_reader(set())
        return [] if member is None else [(member.index, sector, nsectors)]

    def pieces(self, sector, nsectors):
        return [(self.data_source_members()[0].index, sector, nsectors)]

    def member_to_logical(self, index, msector, nsectors):
        return [(msector, 0, nsectors)]

    def copies(self, index):
        # Every member, dead ones included: offline tools and the shared
        # integrity table address the mirror as one image.
        return range(len(self.members))

    def data_source_members(self):
        live = [m for m in self.members if m.live and not m.resyncing]
        return live if live else self.members[:1]

    def _retry_read(self, state: _JoinState, child: Buf) -> bool:
        if not state.parent.is_read:
            return False
        member = self._pick_reader(state.tried)
        if member is None:
            return False
        state.tried.add(member.index)
        self.stats.incr("read_retries")
        retry = Buf(self.engine, BufOp.READ, child.sector, child.nsectors,
                    async_=True, ordered=child.ordered, owner=child.owner)
        retry.member = member.index
        retry.request = child.request
        retry.parent_span = child.parent_span
        retry.iodone.append(self._join_hook(state, member))
        member.driver.strategy(retry)
        return True

    # -- resync ------------------------------------------------------------
    def resync(self, index: int) -> Generator[Any, Any, dict]:
        """Bring member ``index`` back into the mirror: clear its fault
        plan, diff its store against a live source, copy the differing
        runs with timed member I/O (FUA writes, scrub-style contiguous
        runs), then verify the copy against the integrity region when one
        is attached.

        Run at quiesce (flush first): volatile survivor entries are not
        part of the durable diff.  Returns a report dict.
        """
        from repro.integrity.scrub import _contiguous_runs

        target = self.members[index]
        source = next((m for m in self.members
                       if m.live and not m.resyncing and m.index != index),
                      None)
        if source is None:
            raise InvalidArgumentError("mirror resync needs a live source")
        target.fault_plan = None
        target.disk.fault_plan = None
        if target.write_cache is not None and target.write_cache.entries:
            target.write_cache.drop_all()  # stale volatile pre-death state
        target.failed = False
        target.resyncing = True
        self.stats.incr("resyncs")
        try:
            diff = source.store.differing_sectors(target.store)
            copied = 0
            for start, end in (_contiguous_runs(diff) if diff else []):
                count = end - start + 1
                rbuf = Buf(self.engine, BufOp.READ, start, count,
                           owner="resync")
                source.driver.strategy(rbuf)
                yield rbuf.done
                wbuf = Buf(self.engine, BufOp.WRITE, start, count,
                           data=rbuf.data, fua=True, owner="resync")
                target.driver.strategy(wbuf)
                yield wbuf.done
                copied += count
            bad_frags: list[int] = []
            region = self.integrity
            if region is not None and diff:
                fs = region.frag_sectors
                frags = sorted({s // fs for s in diff
                                if s < region.nfrags * fs})
                for fstart, fend in (_contiguous_runs(frags) if frags else []):
                    data = target.store.read(fstart * fs,
                                             (fend - fstart + 1) * fs)
                    bad_frags.extend(
                        frag for frag, _ in region.verify_range(
                            fstart * fs, data))
        finally:
            target.resyncing = False
        target.health.reset()
        identical = source.store.digest() == target.store.digest()
        return {
            "member": index,
            "source": source.index,
            "sectors_copied": copied,
            "identical": identical,
            "verify_failures": bad_frags,
        }


# ---------------------------------------------------------------------------
# construction


def build_volume(engine: "Engine", metrics: "MetricsRegistry",
                 config: "SystemConfig",
                 cpu: "Cpu | None" = None,
                 store: "DiskStore | list[DiskStore] | None" = None,
                 fault_plan=None):
    """Build the volume ``config.layout`` describes.

    ``store`` boots against existing bytes: one :class:`DiskStore` for the
    single layout, a list (one per member) for multi-member layouts.
    ``fault_plan`` is one plan (member 0) or a per-member list.
    """
    spec = VolumeSpec.parse(config.layout)
    n = spec.nmembers
    if store is None:
        stores: "list[DiskStore | None]" = [None] * n
    elif isinstance(store, (list, tuple)):
        if len(store) != n:
            raise InvalidArgumentError(
                f"{len(store)} stores for a {n}-member {spec.kind} volume")
        stores = list(store)
    else:
        if n != 1:
            raise InvalidArgumentError(
                f"a single store cannot boot a {n}-member {spec.kind} "
                f"volume; pass one store per member")
        stores = [store]
    if fault_plan is None:
        plans = [None] * n
    elif isinstance(fault_plan, (list, tuple)):
        if len(fault_plan) != n:
            raise InvalidArgumentError(
                f"{len(fault_plan)} fault plans for {n} members")
        plans = list(fault_plan)
    else:
        plans = [fault_plan] + [None] * (n - 1)
    single = spec.kind == "single"
    members = [VolumeMember(engine, metrics,
                            "disk" if single else f"disk.m{i}", i, config,
                            cpu, store=stores[i], fault_plan=plans[i])
               for i in range(n)]
    if single:
        return SingleVolume(members[0])
    if spec.kind == "mirror":
        return MirrorVolume(engine, metrics, members, spec, config.geometry)
    return StripeVolume(engine, metrics, members, spec,
                        concat_geometry(config.geometry, n))
