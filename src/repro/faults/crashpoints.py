"""Exhaustive crash-state exploration over a volatile write cache.

The PR-1 :class:`~repro.faults.campaign.CrashCampaign` samples crash
instants with a seeded RNG; this module replaces luck with enumeration.
A **recording run** executes a workload preset on a disk with a
:class:`~repro.disk.wcache.VolatileWriteCache` whose journal captures
every durability-relevant event (volatile write, FUA write, destage,
flush).  The **explorer** then replays the journal and, at every event,
enumerates the crash states a standards-conforming drive could leave
behind:

* the durable image so far, plus
* any *legal* subset of the cache contents — the drive may destage
  opportunistically in the background, reordering freely within a
  bounded window but never across a ``B_ORDER`` barrier entry — plus
* optionally a torn prefix of the entry that was mid-destage when the
  power died (sector-atomic, like the campaign's torn writes).

Legal subsets of one barrier-free stretch are exactly the sets ``T``
where every included entry has fewer than ``window`` earlier entries
missing (FIFO destaging with an out-of-order window); barrier entries
are all-or-nothing and order the stretches around them.

Each *distinct* materialized image (canonical content hash — the
pruning strategy) is verified once against the **durability contract**
folded from the workload's recorded events up to that crash point:

1. ``fsck --repair`` converges (a second pass is clean);
2. the repaired tree remounts;
3. every file declared durable (fsync/O_SYNC acknowledged) is present
   with its promised bytes intact — unsynced overwrites may leave any
   per-sector mix of promised and later content, never anything else;
4. the PR-4 sanitizer's deep sweep (allocator + coherency + fsck
   walkers) passes on the survivor.

Violations carry the span trees of the requests whose writes were lost
or torn, so a contract breach points at the guilty code path.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Generator

from repro.disk.store import DiskStore
from repro.disk.volume import VolumeSpec
from repro.errors import ReproError
from repro.faults.harness import (
    Campaign, SweepStats, force_sanitizer, read_file,
)
from repro.kernel.config import SystemConfig
from repro.kernel.syscalls import Proc
from repro.kernel.system import System
from repro.sim.engine import SimulationError
from repro.sim.invariants import SanitizerError, render_request
from repro.ufs.fsck import fsck
from repro.units import KB
from repro.vfs.vnode import PutFlags


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Preset:
    """One recorded workload shape.

    All write sizes are sector multiples: destaging and tearing are
    sector-atomic, so sector-aligned writes make "old or new, per
    sector" the exact contract for unsynced data.
    """

    name: str
    description: str
    workload: str                 # dispatch key into _WORKLOADS
    files: int = 2
    chunk: int = 2560             # 5 sectors; off block-size to exercise frags
    chunks: int = 4
    cache_bytes: int = 48 * KB
    window: int = 2               # destage reorder window (entries)
    torn_limit: int = 2           # torn candidates per crash subset
    ordered_metadata: bool = False


PRESETS: dict[str, Preset] = {
    p.name: p for p in (
        Preset("smoke",
               "mixed creates/appends/overwrite/rename/unlink, small files",
               workload="smoke", files=3, chunks=5, window=3),
        Preset("append",
               "interleaved growing files, fsync every other chunk "
               "(exercises fragment-tail relocation)",
               workload="append", files=3, chunks=6),
        Preset("overwrite",
               "in-place rewrites of promised ranges, one O_SYNC file",
               workload="overwrite", files=2, chunks=4),
        Preset("rename",
               "write-tmp/fsync/rename-over publish cycles",
               workload="rename", files=3),
        Preset("relocate",
               "fragment-tail relocation with immediate reuse of the old "
               "fragments (the write-cache durability trap)",
               workload="relocate"),
        Preset("spanning",
               "cluster-spanning sequential writes, single trailing fsync",
               workload="spanning", files=1, chunk=16 * KB, chunks=6,
               cache_bytes=96 * KB),
        Preset("ordered",
               "appends with B_ORDER metadata barriers instead of FUA",
               workload="append", files=2, chunks=4,
               ordered_metadata=True),
    )
}


# ---------------------------------------------------------------------------
# contract events
# ---------------------------------------------------------------------------

@dataclass
class ContractEvent:
    """One workload-level durability fact, pinned to a journal position.

    ``pos`` is the journal length when the event was recorded: the event
    is in effect at any crash point at or after index ``pos``.
    """

    kind: str                     # promise | dirty | forget |
                                  # unlink_begin | unlink | rename_begin | rename
    path: str
    pos: int
    content: bytes = b""
    new_path: str = ""


class ContractRecorder:
    """Workload-side recorder: declared-durable snapshots + namespace ops."""

    def __init__(self, system: System):
        self.system = system
        cache = system.write_cache
        assert cache is not None, "crashpoints needs a volatile write cache"
        if cache.journal is None:
            cache.journal = []
        self.journal = cache.journal
        self.events: list[ContractEvent] = []
        #: (kind, ino, journal position) per acknowledged durability point,
        #: fed by the syscall layer's on_durability hook.
        self.durability_points: list[tuple[str, int, int]] = []
        system.on_durability.append(self._on_durability)

    @property
    def pos(self) -> int:
        return len(self.journal)

    def _on_durability(self, kind: str, vnode: Any) -> None:
        ino = getattr(getattr(vnode, "inode", None), "ino", -1)
        self.durability_points.append((kind, ino, self.pos))

    # -- workload-facing API ----------------------------------------------
    def promise(self, path: str, content: bytes) -> None:
        """``path`` was just acknowledged durable holding ``content``."""
        self.events.append(ContractEvent("promise", path, self.pos,
                                         bytes(content)))

    def dirty(self, path: str, content: bytes) -> None:
        """``path`` now logically holds ``content``, not yet synced."""
        self.events.append(ContractEvent("dirty", path, self.pos,
                                         bytes(content)))

    def forget(self, path: str) -> None:
        """Stop checking ``path`` (about to be displaced/rewritten)."""
        self.events.append(ContractEvent("forget", path, self.pos))

    def unlink_begin(self, path: str) -> None:
        """An unlink is starting: its outcome is ambiguous from the
        operation's first write until it is acknowledged."""
        self.events.append(ContractEvent("unlink_begin", path, self.pos))

    def unlinked(self, path: str) -> None:
        self.events.append(ContractEvent("unlink", path, self.pos))

    def rename_begin(self, old: str, new: str) -> None:
        """A rename is starting: the file may resolve under either name
        (link-then-unlink order guarantees at least one) until the op is
        acknowledged durable."""
        self.events.append(ContractEvent("rename_begin", old, self.pos,
                                         new_path=new))

    def renamed(self, old: str, new: str) -> None:
        self.events.append(ContractEvent("rename", old, self.pos,
                                         new_path=new))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _writeback(proc: Proc, path: str) -> Generator[Any, Any, None]:
    """Write-behind, as the update daemon would: push the file's dirty
    pages without waiting and without a flush — they land in the drive's
    volatile cache and stay there until something barriers."""
    vn = yield from proc.system.mount.namei(path)
    if vn.size > 0:
        yield from vn.putpage(0, vn.size, PutFlags(async_=True))


def _wl_append(proc: Proc, rec: ContractRecorder, rng: random.Random,
               p: Preset) -> Generator[Any, Any, None]:
    fds: dict[str, int] = {}
    mirror: dict[str, bytearray] = {}
    for i in range(p.files):
        path = f"/f{i}"
        fds[path] = yield from proc.creat(path)
        mirror[path] = bytearray()
    for c in range(p.chunks):
        for path in sorted(fds):
            data = rng.randbytes(p.chunk)
            # Declared dirty *before* the write issues: from this moment
            # any sector of the new version may legally reach the platter.
            mirror[path] += data
            rec.dirty(path, bytes(mirror[path]))
            yield from proc.write(fds[path], data)
            # fsync every third chunk: long enough between flushes for the
            # cache to accumulate a rich pending set, short enough that
            # promised state keeps advancing.
            if c % 3 == 2 or c == p.chunks - 1:
                yield from proc.fsync(fds[path])
                rec.promise(path, bytes(mirror[path]))
            else:
                yield from _writeback(proc, path)
    for path in sorted(fds):
        yield from proc.close(fds[path])


def _wl_overwrite(proc: Proc, rec: ContractRecorder, rng: random.Random,
                  p: Preset) -> Generator[Any, Any, None]:
    for i in range(p.files):
        path = f"/ow{i}"
        osync = i == p.files - 1  # the last file writes through O_SYNC
        fd = yield from proc.open(path, create=True, sync=osync)
        mirror = bytearray(rng.randbytes(p.chunk * p.chunks))
        yield from proc.write(fd, bytes(mirror))
        if osync:
            rec.promise(path, bytes(mirror))
        else:
            rec.dirty(path, bytes(mirror))
            yield from proc.fsync(fd)
            rec.promise(path, bytes(mirror))
        for c in range(p.chunks - 1, 0, -1):  # rewrite interior chunks
            off = c * p.chunk
            data = rng.randbytes(p.chunk)
            mirror[off:off + p.chunk] = data
            rec.dirty(path, bytes(mirror))  # in flight: old or new, by sector
            yield from proc.pwrite(fd, data, off)
            if osync:
                rec.promise(path, bytes(mirror))
            else:
                yield from _writeback(proc, path)
        if not osync:
            yield from proc.fsync(fd)
            rec.promise(path, bytes(mirror))
        yield from proc.close(fd)


def _wl_rename(proc: Proc, rec: ContractRecorder, rng: random.Random,
               p: Preset) -> Generator[Any, Any, None]:
    for i in range(p.files):
        final = f"/pub{i}"
        for gen in range(2):  # publish twice: second rename displaces
            tmp = f"/tmp{i}.{gen}"
            fd = yield from proc.creat(tmp)
            content = rng.randbytes(p.chunk * (gen + 1))
            yield from proc.write(fd, content)
            yield from proc.fsync(fd)
            rec.promise(tmp, content)
            yield from proc.close(fd)
            rec.forget(final)
            rec.rename_begin(tmp, final)
            yield from proc.rename(tmp, final)
            rec.renamed(tmp, final)


def _wl_spanning(proc: Proc, rec: ContractRecorder, rng: random.Random,
                 p: Preset) -> Generator[Any, Any, None]:
    path = "/big"
    fd = yield from proc.creat(path)
    mirror = bytearray()
    for _ in range(p.chunks):
        data = rng.randbytes(p.chunk)
        mirror += data
        rec.dirty(path, bytes(mirror))
        yield from proc.write(fd, data)
        yield from _writeback(proc, path)
    yield from proc.fsync(fd)
    rec.promise(path, bytes(mirror))
    yield from proc.close(fd)


def _wl_relocate(proc: Proc, rec: ContractRecorder, rng: random.Random,
                 p: Preset) -> Generator[Any, Any, None]:
    """The fragment-relocation durability trap, distilled.

    f0 is fsynced while its tail is a short fragment run; f1's tail sits
    in the fragments right behind it, so f0's next append relocates the
    run and frees the old fragments while the relocated data is only
    write-behind (volatile).  A third file then sweeps up the freed
    fragments and fsyncs — the flush makes *its* bytes durable in the
    fragments f0's durable inode still points at.
    """
    fds: dict[str, int] = {}
    mirror: dict[str, bytearray] = {}
    for name in ("/f0", "/f1"):
        fds[name] = yield from proc.creat(name)
        data = rng.randbytes(p.chunk)
        mirror[name] = bytearray(data)
        rec.dirty(name, data)
        yield from proc.write(fds[name], data)
        yield from proc.fsync(fds[name])
        rec.promise(name, bytes(mirror[name]))
    data = rng.randbytes(p.chunk)
    mirror["/f0"] += data
    rec.dirty("/f0", bytes(mirror["/f0"]))
    yield from proc.write(fds["/f0"], data)
    yield from _writeback(proc, "/f0")
    fd = yield from proc.creat("/g")
    data = rng.randbytes(p.chunk)
    rec.dirty("/g", data)
    yield from proc.write(fd, data)
    yield from proc.fsync(fd)
    rec.promise("/g", data)
    for name in ("/f0", "/f1"):
        yield from proc.close(fds[name])
    yield from proc.close(fd)


def _wl_smoke(proc: Proc, rec: ContractRecorder, rng: random.Random,
              p: Preset) -> Generator[Any, Any, None]:
    # A little of everything, kept small: three append files, one
    # overwritten file, one rename publish, one unlink.
    yield from _wl_append(proc, rec, rng,
                          Preset("smoke-append", "", "append", files=p.files,
                                 chunk=p.chunk, chunks=p.chunks))
    path = "/ow"
    fd = yield from proc.creat(path)
    mirror = bytearray(rng.randbytes(p.chunk * 2))
    yield from proc.write(fd, bytes(mirror))
    rec.dirty(path, bytes(mirror))
    yield from proc.fsync(fd)
    rec.promise(path, bytes(mirror))
    data = rng.randbytes(p.chunk)
    mirror[:p.chunk] = data
    rec.dirty(path, bytes(mirror))
    yield from proc.pwrite(fd, data, 0)
    yield from proc.close(fd)
    yield from _wl_rename(proc, rec, rng,
                          Preset("smoke-rename", "", "rename", files=1,
                                 chunk=p.chunk))
    rec.unlink_begin("/f0")
    yield from proc.unlink("/f0")
    rec.unlinked("/f0")


_WORKLOADS = {
    "append": _wl_append,
    "overwrite": _wl_overwrite,
    "rename": _wl_rename,
    "relocate": _wl_relocate,
    "spanning": _wl_spanning,
    "smoke": _wl_smoke,
}


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

@dataclass
class CrashpointReport(SweepStats):
    """Counters of one exploration (deterministic per preset and seed)."""

    MUST_BE_ZERO = ("violations",)

    journal_events: int = 0
    contract_events: int = 0
    durability_points: int = 0
    crash_points: int = 0
    raw_states: int = 0
    distinct_states: int = 0
    fsck_repairs: int = 0
    states_truncated: bool = False

    def __post_init__(self) -> None:
        #: One dict per contract breach on one distinct crash state — the
        #: explorer's ``records``, not a counter, so not a dataclass field:
        #: ``state`` (short image hash), ``category`` (fsck_nonconvergent |
        #: remount_failed | durable_file_missing | durable_data_lost |
        #: sanitizer), ``detail``, ``event_index`` (the crash point),
        #: ``dropped``, ``torn``, ``spans``.
        self.violations: "list[dict]" = []


# ---------------------------------------------------------------------------
# the explorer
# ---------------------------------------------------------------------------

class _Pending:
    """A journal write event replayed into the explorer's pending list."""

    __slots__ = ("seq", "sector", "nsectors", "data", "ordered", "owner",
                 "request")

    def __init__(self, ev: Any):
        self.seq = ev.seq
        self.sector = ev.sector
        self.nsectors = ev.nsectors
        self.data = ev.data
        self.ordered = ev.ordered
        self.owner = ev.owner
        self.request = ev.request

    def describe(self) -> str:
        flag = " B_ORDER" if self.ordered else ""
        return (f"write#{self.seq} sec={self.sector}+{self.nsectors}"
                f"{flag} owner={self.owner!r}")


class _Slot:
    """Folded contract state for one declared-durable file."""

    __slots__ = ("promised", "versions", "alts", "may_be_absent")

    def __init__(self, promised: bytes, path: str):
        self.promised = promised
        self.versions: list[bytes] = []
        self.alts = [path]
        self.may_be_absent = False


class CrashpointExplorer(Campaign):
    """Record one preset workload, then enumerate and verify every
    bounded-legal crash state of it."""

    name = "crashpoints"

    def __init__(self, preset: "str | Preset" = "smoke", seed: int = 0,
                 sanitize: "bool | None" = None,
                 max_states: "int | None" = 20000,
                 window: "int | None" = None,
                 torn_limit: "int | None" = None,
                 config: "SystemConfig | None" = None):
        if isinstance(preset, str):
            try:
                preset = PRESETS[preset]
            except KeyError:
                raise ValueError(
                    f"unknown preset {preset!r} (have {sorted(PRESETS)})"
                ) from None
        super().__init__(CrashpointReport(), seed, config, sanitize)
        self.records = self.stats.violations  # a record *is* a violation
        self.preset = preset
        self.max_states = max_states
        self.window = window if window is not None else preset.window
        self.torn_limit = (torn_limit if torn_limit is not None
                           else preset.torn_limit)
        if self.window < 1:
            raise ValueError("window must be >= 1")
        layout = VolumeSpec.parse(self.config.layout)
        if layout.kind != "single":
            raise ValueError(
                f"layout {layout.describe()}: crash-point journaling "
                "records one drive's write cache")
        self.record_config = self.config.with_(
            write_cache=True, write_cache_bytes=preset.cache_bytes,
            ordered_metadata=preset.ordered_metadata)
        #: Survivors remount write-through: the crash image is durable by
        #: construction, and verification must not add volatility of its own.
        self.verify_config = self.config.with_(write_cache=False,
                                               ordered_metadata=False)
        #: The recording machine, kept after :meth:`run` so tests can
        #: assert on what the workload actually exercised (e.g. that the
        #: relocate preset really took the relocation-barrier path).
        self.recorded: "System | None" = None
        #: "<image hash> <verdict>" per distinct state: what the digest
        #: hashes, so two runs explored the same space iff digests match.
        self._state_lines: "list[str]" = []

    def digest_lines(self) -> "list[str]":
        return self._state_lines

    # -- recording ---------------------------------------------------------
    def _record(self):
        system = System(self.record_config)
        force_sanitizer(self.sanitize, system)
        system.mkfs()
        system.run(system.mount_fs(), name="crashpoints-mount")
        system.sync()  # quiesce: the base image below is fully durable
        system.tracer.enabled = True  # violations carry request span trees
        base = system.store.clone()   # durable image at journal start
        rec = ContractRecorder(system)
        proc = Proc(system, name="crashpoints")
        rng = random.Random(self.seed)
        workload = _WORKLOADS[self.preset.workload]
        system.run(workload(proc, rec, rng, self.preset),
                   name="crashpoints-record")
        system.sync()  # ends with a FLUSH: the journal closes drained
        # Journal/data-plane self-check: replaying every journal event over
        # the base image must reproduce the final durable store exactly.
        replay = base.clone()
        pending: list[_Pending] = []
        for ev in rec.journal:
            self._apply_event(replay, pending, ev)
        if pending or replay.digest() != system.store.digest():
            raise SimulationError(
                "write-cache journal does not reproduce the recorded "
                "store (journal/data-plane incoherence)")
        return system, rec, base

    @staticmethod
    def _apply_event(store: DiskStore, pending: list[_Pending],
                     ev: Any) -> None:
        if ev.kind == "write":
            pending.append(_Pending(ev))
        elif ev.kind == "fua":
            store.write(ev.sector, ev.data)
        elif ev.kind == "destage":
            head = pending.pop(0)
            assert head.seq == ev.seq, "journal out of order"
            store.write(head.sector, head.data)
        elif ev.kind == "flush":
            assert not pending, "flush with entries still pending"
        elif ev.kind == "drop":  # pragma: no cover - recording never cuts
            pending.clear()

    # -- legal subsets -----------------------------------------------------
    def _legal_subsets(self, pending: list[_Pending]):
        """Yield every legal destage subset as a list of entries (in cache
        order).  Epochs between B_ORDER entries allow FIFO-with-window
        reordering; barrier entries are all-or-nothing and strictly
        ordered against both sides."""
        epochs: list[tuple[bool, list[_Pending]]] = []
        for e in pending:
            if e.ordered:
                epochs.append((True, [e]))
            elif not epochs or epochs[-1][0]:
                epochs.append((False, [e]))
            else:
                epochs[-1][1].append(e)
        yield []
        prefix: list[_Pending] = []
        for barrier, epoch in epochs:
            if not barrier:
                m = len(epoch)
                for j_max in range(m):
                    kept = epoch[:j_max + 1]
                    for holes in self._hole_sets(j_max):
                        if j_max == m - 1 and not holes:
                            continue  # the full epoch: emitted as the prefix
                        subset = [e for l, e in enumerate(kept)
                                  if l not in holes]
                        yield prefix + subset
            prefix = prefix + epoch
            yield list(prefix)

    def _hole_sets(self, j_max: int):
        """All sets of dropped indices below an included ``j_max``; the
        window allows at most ``window - 1`` of them."""
        from itertools import combinations

        yield frozenset()
        for k in range(1, self.window):
            for combo in combinations(range(j_max), k):
                yield frozenset(combo)

    def _torn_candidates(self, pending: list[_Pending],
                         subset: list[_Pending]) -> list[_Pending]:
        """Entries that could legally be mid-destage after ``subset``."""
        chosen = {e.seq for e in subset}
        out = []
        for e in pending:
            if e.seq in chosen:
                continue
            if self._subset_legal(pending, chosen | {e.seq}):
                out.append(e)
            if len(out) >= self.torn_limit:
                break
        return out

    @staticmethod
    def _subset_legal_window(pending: list[_Pending], chosen: set,
                             window: int) -> bool:
        holes = 0
        barrier_blocked = False
        for e in pending:
            if e.seq in chosen:
                if barrier_blocked or holes >= window:
                    return False
                if e.ordered and holes > 0:
                    return False
            else:
                holes += 1
                if e.ordered:
                    barrier_blocked = True
        return True

    def _subset_legal(self, pending: list[_Pending], chosen: set) -> bool:
        return self._subset_legal_window(pending, chosen, self.window)

    # -- materialization ---------------------------------------------------
    @staticmethod
    def _materialize(base: DiskStore, subset: list[_Pending],
                     torn: "tuple[_Pending, int] | None") -> DiskStore:
        img = base.clone()
        for e in subset:
            img.write(e.sector, e.data)
        if torn is not None:
            e, nsec = torn
            img.write(e.sector, e.data[:nsec * base.sector_size])
        return img

    def _torn_prefixes(self, nsectors: int) -> list[int]:
        cuts = {1, nsectors // 2, nsectors - 1}
        return sorted(c for c in cuts if 0 < c < nsectors)

    # -- contract folding --------------------------------------------------
    def _fold(self, events: list[ContractEvent], index: int,
              flushes: list[int]) -> dict[str, _Slot]:
        """The durability contract in effect at crash point ``index``."""
        fua_mode = not self.record_config.ordered_metadata

        def certain(pos: int) -> bool:
            # A namespace op's metadata is durable once FUA-written (at
            # completion, so before the event was recorded) or once any
            # later flush drained its barrier entries.
            return fua_mode or any(pos <= f < index for f in flushes)

        slots: dict[str, _Slot] = {}
        for ev in events:
            if ev.pos > index:
                break
            if ev.kind == "promise":
                slots[ev.path] = _Slot(ev.content, ev.path)
            elif ev.kind == "dirty":
                slot = slots.get(ev.path)
                if slot is not None:
                    slot.versions.append(ev.content)
            elif ev.kind == "forget":
                slots.pop(ev.path, None)
            elif ev.kind == "unlink_begin":
                slot = slots.get(ev.path)
                if slot is not None:
                    slot.may_be_absent = True
            elif ev.kind == "unlink":
                if certain(ev.pos):
                    slots.pop(ev.path, None)
                # else: may_be_absent since unlink_begin covers it
            elif ev.kind == "rename_begin":
                slot = slots.get(ev.path)
                if slot is not None and ev.new_path not in slot.alts:
                    slot.alts.append(ev.new_path)
            elif ev.kind == "rename":
                slot = slots.pop(ev.path, None)
                if slot is not None:
                    if certain(ev.pos):
                        slot.alts = [ev.new_path]
                    elif ev.new_path not in slot.alts:
                        slot.alts.append(ev.new_path)
                    slots[ev.new_path] = slot
        return slots

    # -- verification ------------------------------------------------------
    def _verify_state(self, img: DiskStore, index: int,
                      slots: dict[str, _Slot]) -> tuple[list, int]:
        """fsck-repair, remount, and check the contract on one image.

        Returns (violations as (category, detail) pairs, repair count).
        """
        problems: list[tuple[str, str]] = []
        report = fsck(img, repair=True)
        verify = fsck(img)
        if not verify.clean:
            problems.append((
                "fsck_nonconvergent",
                f"{len(verify.findings)} finding(s) survive repair; "
                f"first: {verify.findings[0]}"))
            return problems, len(report.repairs)
        try:
            survivor = System.remounted(img, self.verify_config)
            force_sanitizer(self.sanitize, survivor)
            proc = Proc(survivor, name="crashpoints-verify")
            for path in sorted(slots):
                problems.extend(self._check_slot(survivor, proc, path,
                                                 slots[path]))
            # Quiesced, repaired: the deep sweep must find the machine and
            # the on-disk image consistent.
            survivor.sanitizer.checkpoint("crashpoint_survivor", idle=True,
                                          deep=True)
        except SanitizerError as exc:
            problems.append(("sanitizer", str(exc).split("\n")[0]))
        except (ReproError, SimulationError) as exc:
            problems.append(("remount_failed",
                             f"{type(exc).__name__}: {exc}"))
        return problems, len(report.repairs)

    def _check_slot(self, survivor: System, proc: Proc, path: str,
                    slot: _Slot) -> list[tuple[str, str]]:
        from repro.errors import FileNotFoundError_

        found = None
        size = 0
        for cand in slot.alts:
            try:
                size = survivor.run(proc.stat_size(cand),
                                    name="crashpoints-stat")
            except FileNotFoundError_:
                continue
            found = cand
            break
        if found is None:
            if slot.may_be_absent:
                return []
            return [("durable_file_missing",
                     f"{path}: no candidate of {slot.alts} survives")]
        data = survivor.run(read_file(proc, found, size),
                            name="crashpoints-read")
        n = len(slot.promised)
        if size < n:
            return [("durable_data_lost",
                     f"{found}: size {size} < promised {n} bytes")]
        problems = []
        for off in range(0, max(n, size), 512):
            got = data[off:off + 512]
            allowed = []
            if off < n:
                allowed.append(slot.promised[off:off + 512][:len(got)])
            for v in slot.versions:
                if off < len(v):
                    allowed.append(v[off:off + 512][:len(got)])
            if got not in allowed:
                what = ("promised" if off < n else "unsynced")
                problems.append((
                    "durable_data_lost",
                    f"{found}: sector at byte {off} matches no {what} "
                    f"version ({len(allowed)} allowed)"))
                break  # one bad sector proves the loss; keep output short
        return problems

    # -- the sweep ---------------------------------------------------------
    def run(self) -> CrashpointReport:
        system, rec, base = self._record()
        self.recorded = system
        journal = rec.journal
        flushes = [i for i, ev in enumerate(journal) if ev.kind == "flush"]
        report = self.stats
        report.journal_events = len(journal)
        report.contract_events = len(rec.events)
        report.durability_points = len(rec.durability_points)

        durable = base.clone()
        pending: list[_Pending] = []
        seen: dict[str, str] = {}      # image hash -> verdict

        def explore_point(index: int, next_ev: Any) -> bool:
            """Enumerate crash states at journal index ``index``; returns
            False once the raw-state budget is exhausted."""
            report.crash_points += 1
            slots = None
            for subset in self._legal_subsets(pending):
                variants: list["tuple[_Pending, int] | None"] = [None]
                torn_pool = list(self._torn_candidates(pending, subset))
                if (next_ev is not None and next_ev.kind == "fua"
                        and next_ev.nsectors > 1):
                    torn_pool.append(_Pending(next_ev))
                for e in torn_pool:
                    for nsec in self._torn_prefixes(e.nsectors):
                        variants.append((e, nsec))
                for torn in variants:
                    if (self.max_states is not None
                            and report.raw_states >= self.max_states):
                        report.states_truncated = True
                        return False
                    report.raw_states += 1
                    img = self._materialize(durable, subset, torn)
                    digest = img.digest()
                    if digest in seen:
                        continue
                    report.distinct_states += 1
                    if slots is None:
                        slots = self._fold(rec.events, index, flushes)
                    problems, repairs = self._verify_state(img, index, slots)
                    report.fsck_repairs += repairs
                    verdict = ("ok" if not problems else
                               "+".join(sorted({c for c, _ in problems})))
                    seen[digest] = verdict
                    self._state_lines.append(f"{digest} {verdict}")
                    if problems:
                        kept = {e.seq for e in subset}
                        dropped = [e.describe() for e in pending
                                   if e.seq not in kept]
                        spans = []
                        for e in pending:
                            if e.seq in kept:
                                continue
                            tree = render_request(e.request)
                            if tree is not None and tree not in spans:
                                spans.append(tree)
                            if len(spans) >= 3:
                                break
                        torn_desc = None
                        if torn is not None:
                            torn_desc = (f"{torn[0].describe()} "
                                         f"torn at {torn[1]} sectors")
                        for category, detail in problems:
                            self.records.append({
                                "state": digest[:16], "category": category,
                                "detail": detail, "event_index": index,
                                "dropped": dropped, "torn": torn_desc,
                                "spans": spans})
            return True

        budget_ok = True
        for i, ev in enumerate(journal):
            # A flush marker changes no state: the previous point covered it.
            if budget_ok and not (i > 0 and journal[i - 1].kind == "flush"):
                budget_ok = explore_point(i, ev)
            self._apply_event(durable, pending, ev)
        if budget_ok:
            explore_point(len(journal), None)

        return report
