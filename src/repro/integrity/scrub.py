"""Background scrub: find latent corruption before a reader does.

A latent error — bit rot, a misdirected or lost write — costs nothing
until the day the file is read, which is exactly when the backup that
could have repaired it has aged out.  The scrubber walks every stamped
fragment through the *real* I/O stack (READ bufs through the driver, so
scans compete for the disk and are visible in traces and request
accounting), verifies each against its integrity record, and climbs a
repair ladder for every mismatch:

1. **replica** — superblock / cg-header fragments have a mirrored copy
   in the integrity region, refreshed on every stamp; if the mirror's
   CRC matches the record, rewrite from it.
2. **page cache** — data fragments name their owner ``(inode, lbn,
   offset)``; if that file is live and the block is cached (clean *or*
   dirty — the cache is upstream of the corruption, never clobber it),
   rewrite the fragment from the in-memory copy.  A block-pointer check
   guards against stale attribution after the block was reallocated.
3. **give up** — mark the record BAD so later passes skip it; readers
   get EIO until the fragment is rewritten (which clears the flag).

Repairs are FUA writes through the driver: they take simulated time,
restamp the record (owner preserved), and are durable on completion.

:class:`ScrubDaemon` paces this as a background task: one batch per
timer tick, skipping ticks while foreground I/O is in flight, and
running a sanitizer checkpoint after each completed pass.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING, Any, Generator

from repro.disk.buf import Buf, BufOp
from repro.errors import DiskError, InvalidArgumentError
from repro.sim.events import EventFailed
from repro.units import MS

if TYPE_CHECKING:  # pragma: no cover
    from repro.integrity.checksum import IntegrityRegion, Record
    from repro.kernel.system import System


class ScrubReport:
    """Cumulative outcome of one scrubber's passes."""

    __slots__ = (
        "frags_scanned", "detected", "repaired", "repaired_from_replica",
        "repaired_from_cache", "repaired_from_mirror", "unrepairable",
        "passes", "details",
    )

    def __init__(self) -> None:
        self.frags_scanned = 0
        self.detected = 0
        self.repaired = 0
        self.repaired_from_replica = 0
        self.repaired_from_cache = 0
        self.repaired_from_mirror = 0
        self.unrepairable = 0
        self.passes = 0
        #: One dict per detected fragment: frag, reason, outcome, source.
        self.details: list[dict[str, Any]] = []

    def as_dict(self) -> dict[str, Any]:
        return {
            "frags_scanned": self.frags_scanned,
            "detected": self.detected,
            "repaired": self.repaired,
            "repaired_from_replica": self.repaired_from_replica,
            "repaired_from_cache": self.repaired_from_cache,
            "repaired_from_mirror": self.repaired_from_mirror,
            "unrepairable": self.unrepairable,
            "passes": self.passes,
            "details": list(self.details),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ScrubReport scanned={self.frags_scanned} "
            f"detected={self.detected} repaired={self.repaired} "
            f"unrepairable={self.unrepairable} passes={self.passes}>"
        )


def _contiguous_runs(frags: "list[int]") -> "list[tuple[int, int]]":
    """Split a sorted fragment list into inclusive (start, end) runs."""
    runs: list[tuple[int, int]] = []
    start = prev = frags[0]
    for frag in frags[1:]:
        if frag == prev + 1:
            prev = frag
            continue
        runs.append((start, prev))
        start = prev = frag
    runs.append((start, prev))
    return runs


class Scrubber:
    """Scans stamped fragments and repairs what it can.

    ``scrub_now()`` runs one full pass; ``scrub_tick()`` advances one
    batch (the daemon's unit of work).  Both throttle against the
    request registry so scrubbing yields to foreground I/O.
    """

    #: Fragments read and verified per batch (one request).
    BATCH_FRAGS = 64
    #: Foreground requests in flight above which scrubbing waits.
    INFLIGHT_LIMIT = 2
    #: How long a throttled full pass sleeps before looking again.
    PACE = 2 * MS

    def __init__(self, system: "System"):
        if system.disk.integrity is None:
            raise InvalidArgumentError(
                "scrubber requires an attached integrity region "
                "(mkfs with checksums=True, or tunefs)"
            )
        self.system = system
        self.engine = system.engine
        self.report = ScrubReport()
        self.stats = system.metrics.counters("scrub")
        self._cursor = 0

    @property
    def region(self) -> "IntegrityRegion":
        region = self.system.disk.integrity
        assert region is not None
        return region

    # -- entry points ------------------------------------------------------
    def scrub_now(self) -> Generator[Any, Any, ScrubReport]:
        """One full pass over every stamped fragment; returns the report."""
        frags = self.region.stamped_frags()
        for i in range(0, len(frags), self.BATCH_FRAGS):
            yield from self._throttle()
            yield from self._scan_batch(frags[i:i + self.BATCH_FRAGS])
        self.report.passes += 1
        self.stats.incr("passes")
        return self.report

    def scrub_tick(self) -> Generator[Any, Any, bool]:
        """Advance one batch from the rolling cursor.

        Returns True when this tick completed a full pass (the cursor
        wrapped) — the daemon's cue to checkpoint the sanitizer.
        """
        frags = self.region.stamped_frags()
        if not frags:
            return False
        if self._cursor >= len(frags):
            self._cursor = 0
        batch = frags[self._cursor:self._cursor + self.BATCH_FRAGS]
        yield from self._scan_batch(batch)
        self._cursor += len(batch)
        if self._cursor >= len(frags):
            self._cursor = 0
            self.report.passes += 1
            self.stats.incr("passes")
            return True
        return False

    # -- scanning ----------------------------------------------------------
    def _throttle(self) -> Generator[Any, Any, None]:
        while self.system.requests.inflight.value > self.INFLIGHT_LIMIT:
            self.stats.incr("throttle_waits")
            yield from self.engine.sleep(self.PACE)

    def _scan_batch(self, batch: "list[int]") -> Generator[Any, Any, None]:
        """Read one batch through the stack, verify offline, repair."""
        if not batch:
            return
        region = self.region
        fs = region.frag_sectors
        req = self.system.requests.start("scrub", origin="scrubd",
                                         frags=len(batch))
        try:
            for start, end in _contiguous_runs(batch):
                sector = start * fs
                nsectors = (end - start + 1) * fs
                buf = Buf(self.engine, BufOp.READ, sector, nsectors,
                          owner="scrub")
                buf.request = req
                buf.parent_span = req.current_span
                self.system.driver.strategy(buf)
                try:
                    yield buf.done
                except EventFailed as failure:
                    cause = failure.args[0] if failure.args else failure
                    if not isinstance(cause, DiskError):
                        raise cause from None
                    # The stack saw the corruption first (ChecksumError /
                    # MediaError); the offline verify below enumerates
                    # every bad fragment in the run, not just the first.
                self.report.frags_scanned += end - start + 1
                data = self.system.disk.read_through(sector, nsectors)
                bad = region.verify_range(sector, data,
                                          cache=self.system.write_cache)
                for frag, reason in bad:
                    if region.record(frag).bad:
                        self.stats.incr("skipped_known_bad")
                        continue
                    self.report.detected += 1
                    self.stats.incr("detected")
                    yield from self._repair(frag, reason, req)
            req.complete()
        except BaseException as exc:
            req.complete(exc)
            raise

    # -- repair ladder -----------------------------------------------------
    def _repair(self, frag: int, reason: str,
                req: Any) -> Generator[Any, Any, None]:
        region = self.region
        rec = region.record(frag)
        data = None
        source = None
        replica = region.replica_frag(frag)
        if replica is not None and zlib.crc32(replica) == rec.crc:
            data = replica
            source = "replica"
        if data is None:
            data = self._cache_copy(frag, rec)
            if data is not None:
                source = "cache"
        if data is None:
            data = self._mirror_copy(frag, rec)
            if data is not None:
                source = "mirror"
        if data is None:
            region.mark_bad(frag)
            self.report.unrepairable += 1
            self.stats.incr("unrepairable")
            self.report.details.append(
                {"frag": frag, "reason": reason, "outcome": "unrepairable",
                 "source": None, "kind": region.frag_kind(frag)})
            return
        buf = Buf(self.engine, BufOp.WRITE, frag * region.frag_sectors,
                  region.frag_sectors, data=data, fua=True,
                  owner="scrub-repair")
        buf.request = req
        buf.parent_span = req.current_span
        self.system.driver.strategy(buf)
        try:
            yield buf.done
        except EventFailed as failure:
            cause = failure.args[0] if failure.args else failure
            raise cause from None
        self.report.repaired += 1
        self.stats.incr("repaired")
        if source == "replica":
            self.report.repaired_from_replica += 1
        elif source == "mirror":
            self.report.repaired_from_mirror += 1
        else:
            self.report.repaired_from_cache += 1
        self.report.details.append(
            {"frag": frag, "reason": reason, "outcome": "repaired",
             "source": source, "kind": region.frag_kind(frag)})

    def _mirror_copy(self, frag: int, rec: "Record") -> "bytes | None":
        """The mirror rung of the repair ladder: another member's copy of
        the fragment, accepted only if its CRC matches the record.  The
        repair write then goes back through the volume, overwriting the
        rotten copy on every live member."""
        volume = self.system.volume
        if volume.kind != "mirror":
            return None
        fs = self.region.frag_sectors
        for member in volume.members:
            if not member.live or member.resyncing:
                continue
            data = member.disk.read_through(frag * fs, fs)
            if zlib.crc32(data) == rec.crc:
                return data
        return None

    def _cache_copy(self, frag: int, rec: "Record") -> "bytes | None":
        """An in-memory copy of the fragment, if its owner file is live and
        the block is cached (:meth:`~repro.vfs.vnode.Vfs.cached_fragment`).

        The page is only *read* — a dirty page stays dirty and will be
        written back (and restamped) by the ordinary sync path; the
        scrub repair just stops the on-disk rot from shadowing it.
        """
        mount = self.system.mount
        if mount is None or rec.owner_ino == 0:
            return None
        return mount.cached_fragment(frag, rec.owner_ino, rec.owner_lbn,
                                     rec.off)


class ScrubDaemon:
    """Timer-paced background scrubbing for one machine.

    Each tick scrubs one batch, unless foreground I/O is in flight (the
    tick is skipped and counted as throttled).  The timer is a *daemon*
    timeout: it never keeps the engine alive on its own, so workloads
    still run to idle.
    """

    def __init__(self, system: "System", interval: float = 5.0):
        if interval <= 0:
            raise InvalidArgumentError("interval must be > 0")
        self.system = system
        self.interval = interval
        self.scrubber = Scrubber(system)
        self.stats = self.scrubber.stats
        self.running = False
        self._proc = None
        #: Each member store's attach epoch when this daemon was created.
        #: A later System built over the same bytes (remount, crash
        #: survivor) bumps the epochs; a tick that sees a mismatch stands
        #: the daemon down instead of scrubbing a machine it no longer
        #: owns — its repairs would race the new system's I/O.
        self._store_epochs = [m.store.attach_epoch
                              for m in system.volume.members]

    @property
    def report(self) -> ScrubReport:
        return self.scrubber.report

    def start(self) -> None:
        if self.running:
            return
        self.running = True
        self._proc = self.system.engine.process(self._run(), name="scrubd")

    def stop(self) -> None:
        self.running = False

    @property
    def stale(self) -> bool:
        """True once another System has been built over our stores."""
        return any(m.store.attach_epoch != epoch
                   for m, epoch in zip(self.system.volume.members,
                                       self._store_epochs))

    def _run(self) -> Generator[Any, Any, None]:
        while self.running:
            yield self.system.engine.timeout(self.interval, daemon=True)
            if not self.running:
                return
            if self.stale:
                self.stats.incr("stale_system_stops")
                self.running = False
                return
            if (self.system.requests.inflight.value
                    > Scrubber.INFLIGHT_LIMIT):
                self.stats.incr("ticks_throttled")
                continue
            self.stats.incr("ticks")
            wrapped = yield from self.scrubber.scrub_tick()
            if wrapped:
                # A full pass is a cross-layer consistency point worth
                # auditing, but the machine is not idle — foreground I/O
                # may be running — so only the always-on checks fire.
                self.system.sanitizer.checkpoint("scrub_pass", idle=False)
