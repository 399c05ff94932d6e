"""The fault plan: a deterministic, seeded description of what goes wrong.

A :class:`FaultPlan` is injected into :meth:`repro.disk.disk.RotationalDisk.
service` and consulted once per service attempt, in service order.  Because
the simulation engine is deterministic, the plan's random draws happen in a
reproducible sequence: the same seed and workload produce byte-identical
fault histories, which is what makes crash campaigns replayable.

The fault taxonomy:

* **latent bad sectors** — a fixed set of sectors that fail every media
  access with :class:`~repro.errors.MediaError` until the driver revectors
  them (``remap``), exactly like grown defects on a real drive;
* **transient failures** — each read/write independently fails with a
  configurable probability (or at scheduled trigger times) with
  :class:`~repro.errors.TransientDiskError`; an identical retry succeeds
  (unless the dice fail it again);
* **controller timeouts** — a request hangs for ``timeout_hang`` seconds
  and then fails with :class:`~repro.errors.DiskTimeoutError`;
* **device death** — from ``die_at`` on every request fails instantly
  with :class:`~repro.errors.MemberDeadError` and the volatile cache is
  lost (a volume member's electronics failing);
* **silent faults** — failures the interface reports as success: *lost
  writes* (acknowledged, never reach the media), *misdirected writes*
  (the bytes land at the wrong LBA), *torn tails* (a clustered write's
  tail sectors are dropped), and scheduled *bit rot* developing in place.
  None of these raise; only the integrity layer
  (:mod:`repro.integrity.checksum`) can turn them into detected events.

Crashes are not a fault plan's job: the crash-point explorer
(:mod:`repro.faults.crashpoints`) enumerates every crash state of a
recorded disk journal instead of sampling cut instants.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.errors import (
    DiskTimeoutError, MediaError, MemberDeadError, TransientDiskError,
)
from repro.sim.stats import StatSet

if TYPE_CHECKING:  # pragma: no cover
    from repro.disk.buf import Buf
    from repro.disk.store import DiskStore


class FaultKind(enum.Enum):
    """What kind of failure the plan decided to inject."""

    TRANSIENT = "transient"
    MEDIA = "media"
    TIMEOUT = "timeout"
    #: Whole-device death (a volume member's electronics fail): every
    #: request from ``die_at`` on fails instantly, volatile cache lost.
    DEAD = "dead"


@dataclass(frozen=True)
class FaultDecision:
    """One injected fault: its kind, the exception to raise, and — for
    timeouts — how long the request hangs before the error is reported."""

    kind: FaultKind
    error: Exception
    hang: float = 0.0


class FaultPlan:
    """A seeded, deterministic schedule of disk faults.

    All probabilities are per *service attempt* (a retried request rolls the
    dice again, as a real marginal drive would).  ``decide`` must be called
    exactly once per attempt, in service order, for determinism to hold.
    """

    def __init__(self, seed: int = 0,
                 read_transient_p: float = 0.0,
                 write_transient_p: float = 0.0,
                 bad_sectors: Iterable[int] = (),
                 transient_at: Iterable[float] = (),
                 timeout_at: Iterable[float] = (),
                 timeout_hang: float = 0.25,
                 die_at: "float | None" = None,
                 silent_write_p: float = 0.0,
                 silent_write_at: "Iterable[tuple[float, str]]" = (),
                 misdirect_shift: int = 8,
                 bitrot_at: "Iterable[tuple[float, int, int]]" = ()):
        if not 0.0 <= read_transient_p <= 1.0:
            raise ValueError("read_transient_p must be a probability")
        if not 0.0 <= write_transient_p <= 1.0:
            raise ValueError("write_transient_p must be a probability")
        if timeout_hang < 0:
            raise ValueError("timeout_hang must be >= 0")
        if not 0.0 <= silent_write_p <= 1.0:
            raise ValueError("silent_write_p must be a probability")
        if misdirect_shift == 0:
            raise ValueError("misdirect_shift must be non-zero")
        for _, kind in silent_write_at:
            if kind not in SILENT_KINDS:
                raise ValueError(f"unknown silent fault kind {kind!r}")
        self.seed = seed
        self._rng = random.Random(seed)
        self.read_transient_p = read_transient_p
        self.write_transient_p = write_transient_p
        self.bad_sectors: set[int] = set(bad_sectors)
        self.remapped: dict[int, int] = {}  # bad sector -> spare slot
        self._transient_at = sorted(transient_at)
        self._timeout_at = sorted(timeout_at)
        self.timeout_hang = timeout_hang
        self.die_at = die_at
        self.dead = False
        self.silent_write_p = silent_write_p
        self._silent_at = sorted(silent_write_at)
        self.misdirect_shift = misdirect_shift
        self._bitrot_at = sorted(bitrot_at)
        self.stats = StatSet("faults")
        self._next_spare = 0

    # -- the injection decision (RotationalDisk.service calls this) ----------
    def decide(self, buf: "Buf", now: float) -> "FaultDecision | None":
        """What, if anything, goes wrong with this service attempt."""
        if self.dead or (self.die_at is not None and now >= self.die_at):
            # Checked first (and drawing no dice): adding whole-device
            # death to a plan cannot shift any other fault's rng sequence.
            if not self.dead:
                self.dead = True
                self.stats.incr("member_deaths")
            return FaultDecision(
                FaultKind.DEAD,
                MemberDeadError(f"device died at t={self.die_at:.6f}"))
        # Scheduled one-shot faults fire on the first attempt at/after their
        # trigger time.
        if self._timeout_at and now >= self._timeout_at[0]:
            self._timeout_at.pop(0)
            self.stats.incr("timeouts")
            return FaultDecision(
                FaultKind.TIMEOUT,
                DiskTimeoutError(f"controller hung on {buf!r}"),
                hang=self.timeout_hang,
            )
        if self._transient_at and now >= self._transient_at[0]:
            self._transient_at.pop(0)
            self.stats.incr("transient_faults")
            return FaultDecision(
                FaultKind.TRANSIENT,
                TransientDiskError(f"scheduled transient fault on {buf!r}"))
        bad = self._first_bad(buf.sector, buf.nsectors)
        if bad is not None:
            self.stats.incr("media_faults")
            return FaultDecision(
                FaultKind.MEDIA,
                MediaError(f"hard error at sector {bad}", sector=bad))
        p = self.read_transient_p if buf.is_read else self.write_transient_p
        if p > 0.0 and self._rng.random() < p:
            self.stats.incr("transient_faults")
            return FaultDecision(
                FaultKind.TRANSIENT,
                TransientDiskError(f"transient {buf.op.value} failure"))
        return None

    def _first_bad(self, sector: int, nsectors: int) -> "int | None":
        """The lowest still-bad sector in [sector, sector+nsectors)."""
        hits = self.bad_sectors.intersection(range(sector, sector + nsectors))
        return min(hits) if hits else None

    # -- driver-side recovery hooks ------------------------------------------
    def remap(self, sector: int) -> "int | None":
        """Revector ``sector`` to a spare; returns the spare slot number or
        None if the sector is not in the (still-)bad set."""
        if sector not in self.bad_sectors:
            return None
        self.bad_sectors.discard(sector)
        spare = self._next_spare
        self._next_spare += 1
        self.remapped[sector] = spare
        self.stats.incr("remaps")
        return spare

    # -- silent faults --------------------------------------------------------
    def decide_silent(self, buf: "Buf", now: float) -> "str | None":
        """Does this media write fail *silently*?  Returns one of
        ``SILENT_KINDS`` or None.  Consulted in the write data plane
        (after the timing, instead of the store write); the rng is drawn
        only when ``silent_write_p`` is enabled, so existing plans keep
        their exact fault sequences."""
        if not buf.is_write:
            return None
        if self._silent_at and now >= self._silent_at[0][0]:
            _, kind = self._silent_at.pop(0)
            self.stats.incr("silent_faults")
            self.stats.incr(f"silent_{kind}")
            return kind
        if self.silent_write_p > 0.0 and self._rng.random() < self.silent_write_p:
            kind = self._rng.choice(SILENT_KINDS)
            self.stats.incr("silent_faults")
            self.stats.incr(f"silent_{kind}")
            return kind
        return None

    def apply_due_bitrot(self, store: "DiskStore", now: float) -> "list[int]":
        """Flip any scheduled latent bits whose time has come (rot
        develops in place while the machine runs).  Returns the sectors
        touched; the flip itself is silent."""
        touched: list[int] = []
        while self._bitrot_at and now >= self._bitrot_at[0][0]:
            _, sector, bit = self._bitrot_at.pop(0)
            data = bytearray(store.read(sector, 1))
            data[(bit // 8) % len(data)] ^= 1 << (bit % 8)
            store.write(sector, bytes(data))
            self.stats.incr("bitrot_flips")
            touched.append(sector)
        return touched


#: Silent write-failure kinds ``decide_silent`` can return.
SILENT_KINDS = ("lost", "misdirect", "torn_tail")

#: Offline corruption kinds ``corrupt_frag`` accepts.
CORRUPT_KINDS = ("bitrot", "zero", "torn", "misdirect")


def corrupt_frag(store: "DiskStore", region, frag: int, kind: str,
                 rng: random.Random) -> None:
    """Corrupt one fragment in place, offline (between runs) — the latent
    errors a scrub exists to find.  ``region`` is the disk's
    :class:`~repro.integrity.checksum.IntegrityRegion` (needed only for
    geometry and, for ``"misdirect"``, to forge the record a misdirected
    write would have left: a valid CRC naming the *wrong* fragment).
    """
    from repro.units import SECTOR_SIZE

    if kind not in CORRUPT_KINDS:
        raise ValueError(f"unknown corruption kind {kind!r}")
    fs = region.frag_sectors
    sector = frag * fs
    size = fs * SECTOR_SIZE
    if kind == "bitrot":
        data = bytearray(store.read(sector, fs))
        for _ in range(1 + rng.randrange(3)):
            bit = rng.randrange(size * 8)
            data[bit // 8] ^= 1 << (bit % 8)
        store.write(sector, bytes(data))
    elif kind == "zero":
        store.write(sector, bytes(size))
    elif kind == "torn":
        # A torn tail: the fragment's last sector holds stale garbage.
        tail = bytes(rng.randrange(256) for _ in range(SECTOR_SIZE))
        store.write(sector + fs - 1, tail)
    elif kind == "misdirect":
        garbage = bytes(rng.randrange(256) for _ in range(size))
        store.write(sector, garbage)
        region.forge_misdirect(frag, garbage)
