"""Exhaustive crash-state exploration over the journal a machine's drives
share.

The one crash model: instead of sampling crash instants, enumerate them.
A **recording run** executes a workload preset on a disk whose journal
(:class:`~repro.disk.disk.JournalEvent`) captures every
durability-relevant event (volatile write, media write, destage, flush).
A preset with ``cache_bytes=0`` records the paper's write-through drive,
where every media write is a ``fua`` event; any other records a drive
with a :class:`~repro.disk.wcache.VolatileWriteCache`.  The ``nfs``
workload records the server machine of :func:`~repro.nfs.world.build_world`
while a client drives it over the wire: the journal is the server drive's,
the promises are the client's fsync returns.  On a volume (``mirror`` and
``stripe`` presets) every member drive appends to the one journal, each
event tagged with its member.  The **explorer** then replays the journal
and, at every event, enumerates the crash states each standards-conforming
drive could leave behind:

* the durable image so far, plus
* any *legal* subset of the cache contents — the drive may destage
  opportunistically in the background, reordering freely within a
  bounded window but never across a ``B_ORDER`` barrier entry — plus
* optionally a torn prefix of the entry that was mid-destage, or of the
  media write in flight, when the power died (sector-atomic).

A stripe's crash states are the product of its members' (one volume is
read from all of them); a mirror's are each leg's alone, since recovery
resyncs the other legs from one, plus each leg's death.

Legal subsets of one barrier-free stretch are exactly the sets ``T``
where every included entry has fewer than ``window`` earlier entries
missing (FIFO destaging with an out-of-order window); barrier entries
are all-or-nothing and order the stretches around them.

Each *distinct* materialized image (canonical content hash — the
pruning strategy) is verified once against the **durability contract**:
the recording process's :class:`~repro.faults.ledger.Ledger`, stamped
with journal positions, folded up to that crash point:

1. ``fsck --repair`` converges (a second pass is clean);
2. the repaired tree remounts;
3. :func:`~repro.faults.ledger.check` holds: every file declared durable
   (fsync/O_SYNC acknowledged) is present with its promised bytes intact —
   unsynced overwrites may leave any per-sector mix of promised and later
   content, never anything else — and a removed path stays removed;
4. the PR-4 sanitizer's deep sweep (allocator + coherency + fsck
   walkers) passes on the survivor.

Violations carry the span trees of the requests whose writes were lost
or torn, so a contract breach points at the guilty code path.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from itertools import islice, product
from typing import Any, Callable, Generator

from repro.disk.disk import JournalEvent
from repro.disk.store import DiskStore
from repro.errors import ReproError
from repro.faults.harness import Campaign, force_sanitizer
from repro.faults.ledger import Ledger, check
from repro.kernel.syscalls import Proc
from repro.kernel.system import System
from repro.nfs.world import build_world
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
    sector" the exact contract for unsynced data.  ``cache_bytes=0``
    records on the paper's write-through drive (no volatile cache);
    ``layout`` is the volume the machine records on.
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
    layout: str = "single"


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
        Preset("writethrough",
               "the paper's write-through drive: 48 KB files, fsync every "
               "other one, unlink a never-synced one every fourth",
               workload="writethrough", files=10, chunk=48 * KB,
               cache_bytes=0),
        Preset("nfs",
               "the writethrough churn from an NFS client, on the server's "
               "drive: 16 KB files, a 16 KB cache",
               workload="nfs", files=4, chunk=16 * KB, cache_bytes=16 * KB),
        Preset("mirror",
               "the smoke churn on a mirror:2 volume: each leg's crash "
               "states, resynced from it, and each leg's death",
               workload="smoke", files=2, chunks=4, window=3,
               layout="mirror:2"),
        Preset("stripe",
               "the smoke churn on a stripe:2 volume: the product of the "
               "members' crash states",
               workload="smoke", files=2, chunks=5, window=3,
               layout="stripe:2"),
    )
}


# ---------------------------------------------------------------------------
# workloads: the process's ledger records every promise and dirty version
# ---------------------------------------------------------------------------

def _writeback(proc: Proc, path: str) -> Generator[Any, Any, None]:
    """Write-behind, as the update daemon would: push the file's dirty
    pages without waiting and without a flush — they land in the drive's
    volatile cache and stay there until something barriers."""
    vn = yield from proc.system.mount.namei(path)
    if vn.size > 0:
        yield from vn.putpage(0, vn.size, PutFlags(async_=True))


def _wl_append(proc: Proc, rng: random.Random,
               p: Preset) -> Generator[Any, Any, None]:
    fds: dict[str, int] = {}
    for i in range(p.files):
        path = f"/f{i}"
        fds[path] = yield from proc.creat(path)
    for c in range(p.chunks):
        for path in sorted(fds):
            yield from proc.write(fds[path], rng.randbytes(p.chunk))
            # fsync every third chunk: long enough between flushes for the
            # cache to accumulate a rich pending set, short enough that
            # promised state keeps advancing.
            if c % 3 == 2 or c == p.chunks - 1:
                yield from proc.fsync(fds[path])
            else:
                yield from _writeback(proc, path)
    for path in sorted(fds):
        yield from proc.close(fds[path])


def _wl_overwrite(proc: Proc, rng: random.Random,
                  p: Preset) -> Generator[Any, Any, None]:
    for i in range(p.files):
        path = f"/ow{i}"
        osync = i == p.files - 1  # the last file writes through O_SYNC
        fd = yield from proc.open(path, create=True, sync=osync)
        yield from proc.write(fd, rng.randbytes(p.chunk * p.chunks))
        if not osync:
            yield from proc.fsync(fd)
        for c in range(p.chunks - 1, 0, -1):  # rewrite interior chunks
            yield from proc.pwrite(fd, rng.randbytes(p.chunk), c * p.chunk)
            if not osync:
                yield from _writeback(proc, path)
        if not osync:
            yield from proc.fsync(fd)
        yield from proc.close(fd)


def _wl_rename(proc: Proc, rng: random.Random,
               p: Preset) -> Generator[Any, Any, None]:
    for i in range(p.files):
        for gen in range(2):  # publish twice: second rename displaces
            tmp = f"/tmp{i}.{gen}"
            fd = yield from proc.creat(tmp)
            yield from proc.write(fd, rng.randbytes(p.chunk * (gen + 1)))
            yield from proc.fsync(fd)
            yield from proc.close(fd)
            yield from proc.rename(tmp, f"/pub{i}")


def _wl_spanning(proc: Proc, rng: random.Random,
                 p: Preset) -> Generator[Any, Any, None]:
    path = "/big"
    fd = yield from proc.creat(path)
    for _ in range(p.chunks):
        yield from proc.write(fd, rng.randbytes(p.chunk))
        yield from _writeback(proc, path)
    yield from proc.fsync(fd)
    yield from proc.close(fd)


def _wl_relocate(proc: Proc, rng: random.Random,
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
    for name in ("/f0", "/f1"):
        fds[name] = yield from proc.creat(name)
        yield from proc.write(fds[name], rng.randbytes(p.chunk))
        yield from proc.fsync(fds[name])
    yield from proc.write(fds["/f0"], rng.randbytes(p.chunk))
    yield from _writeback(proc, "/f0")
    fd = yield from proc.creat("/g")
    yield from proc.write(fd, rng.randbytes(p.chunk))
    yield from proc.fsync(fd)
    for name in ("/f0", "/f1"):
        yield from proc.close(fds[name])
    yield from proc.close(fd)


def _wl_smoke(proc: Proc, rng: random.Random,
              p: Preset) -> Generator[Any, Any, None]:
    # A little of everything, kept small: three append files, one
    # overwritten file, one rename publish, one unlink.
    yield from _wl_append(proc, rng,
                          Preset("smoke-append", "", "append", files=p.files,
                                 chunk=p.chunk, chunks=p.chunks))
    fd = yield from proc.creat("/ow")
    yield from proc.write(fd, rng.randbytes(p.chunk * 2))
    yield from proc.fsync(fd)
    yield from proc.pwrite(fd, rng.randbytes(p.chunk), 0)
    yield from proc.close(fd)
    yield from _wl_rename(proc, rng,
                          Preset("smoke-rename", "", "rename", files=1,
                                 chunk=p.chunk))
    yield from proc.unlink("/f0")


def _wl_writethrough(proc: Proc, rng: random.Random, p: Preset,
                     root: str = "/work") -> Generator[Any, Any, None]:
    # Create/write/fsync/unlink churn: every other file is fsynced, and
    # every fourth step removes a never-fsynced earlier file, so the
    # synchronous metadata order of unlink is under the crash points too.
    # An NFS client has no MKDIR: there the files go in the root.
    if root:
        yield from proc.mkdir(root)
    for i in range(p.files):
        data = rng.randbytes(p.chunk)
        fd = yield from proc.creat(f"{root}/f{i}")
        yield from proc.write(fd, data)
        if i % 2 == 0:
            yield from proc.fsync(fd)
        yield from proc.close(fd)
        if i % 4 == 3:
            yield from proc.unlink(f"{root}/f{i - 2}")


_WORKLOADS = {
    "append": _wl_append,
    "overwrite": _wl_overwrite,
    "rename": _wl_rename,
    "relocate": _wl_relocate,
    "spanning": _wl_spanning,
    "smoke": _wl_smoke,
    "writethrough": _wl_writethrough,
    "nfs": partial(_wl_writethrough, root=""),
}


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

@dataclass
class CrashpointReport:
    """Counters of one exploration (deterministic per preset and seed)."""

    journal_events: int = 0
    contract_events: int = 0
    durability_points: int = 0
    crash_points: int = 0
    raw_states: int = 0
    distinct_states: int = 0
    fsck_repairs: int = 0
    states_truncated: bool = False


# ---------------------------------------------------------------------------
# the explorer
# ---------------------------------------------------------------------------

def _describe(e: JournalEvent) -> str:
    """A write the explorer kept pending, as a violation record names it."""
    name = f"write#{e.seq}" if e.kind == "write" else e.kind
    flag = " B_ORDER" if e.ordered else ""
    return f"{name} sec={e.sector}+{e.nsectors}{flag} owner={e.owner!r}"


class _Choice:
    """One member's crash image: its durable image plus a legal destage
    ``subset`` of its ``pending`` entries, maybe with a ``torn`` prefix."""

    __slots__ = ("pending", "subset", "torn", "image", "digest")

    def __init__(self, pending: list[JournalEvent], subset: list[JournalEvent],
                 torn: "tuple[JournalEvent, int] | None", image: DiskStore):
        self.pending = pending
        self.subset = subset
        self.torn = torn
        self.image = image
        self.digest = image.digest()


@dataclass
class _State:
    """One crash state of the machine: the member ``images`` it boots
    from, and the ``choices`` (with a ``kind`` tag) that name what
    verification reads — its key."""

    images: list[DiskStore]
    choices: tuple[_Choice, ...]
    kind: str = ""                # "", "leg<i>:" or "kill<i>:"
    leg: "int | None" = None      # mirror: the leg the others resync from
    victim: "int | None" = None   # mirror: the leg that died

    def key(self, width: "int | None" = None) -> str:
        return self.kind + ",".join(c.digest[:width] for c in self.choices)


def settled(flushes: "list[list[int]]", at: int, pos: int) -> bool:
    """Whether every member flushed at or after ``pos`` and before crash
    point ``at`` (``flushes``: each member's flush positions)."""
    return all(any(pos <= f < at for f in member) for member in flushes)


class CrashpointExplorer(Campaign):
    """Record one preset workload, then enumerate and verify every
    bounded-legal crash state of it."""

    name = "crashpoints"

    def __init__(self, preset: "str | Preset" = "smoke", seed: int = 0,
                 sanitize: "bool | None" = None,
                 max_states: "int | None" = 20000):
        if max_states is not None and max_states < 1:  # nothing checked
            raise ValueError("max_states must be >= 1")
        if isinstance(preset, str):
            try:
                preset = PRESETS[preset]
            except KeyError:
                raise ValueError(
                    f"unknown preset {preset!r} (have {sorted(PRESETS)})"
                ) from None
        if preset.window < 1:
            raise ValueError("window must be >= 1")
        if preset.torn_limit < 0:
            raise ValueError("torn_limit must be >= 0")
        super().__init__(CrashpointReport(), seed, sanitize,
                         layout=preset.layout)
        self.preset = preset
        self.max_states = max_states
        self.record_config = self.config.with_(
            write_cache=preset.cache_bytes > 0,
            write_cache_bytes=preset.cache_bytes,
            ordered_metadata=preset.ordered_metadata)
        #: Survivors remount write-through: the crash image is durable by
        #: construction, and verification must not add volatility of its own.
        self.verify_config = self.config.with_(write_cache=False,
                                               ordered_metadata=False)
        #: The recording machine, kept after :meth:`run` so tests can
        #: assert on what the workload actually exercised (e.g. that the
        #: relocate preset really took the relocation-barrier path).
        self.recorded: "System | None" = None
        #: "<state key> <verdict>" per distinct state: what the digest
        #: hashes, so two runs explored the same space iff digests match.
        self._state_lines: "list[str]" = []
        #: The recording process's ledger, and each member's flush
        #: positions in the journal (set by :meth:`run`).
        self.ledger = Ledger()
        self._flushes: "list[list[int]]" = []

    def digest_lines(self) -> "list[str]":
        return self._state_lines

    # -- recording ---------------------------------------------------------
    def _record(self):
        """Run the workload with every member drive journalling into one
        list and the process's ledger stamped with that list's length —
        over NFS, the client's promises on the server's drive."""
        journal: "list[JournalEvent]" = []
        self.ledger = Ledger(lambda: len(journal))
        if self.preset.workload == "nfs":
            # The server's drive is recorded; a client drives it by RPC.
            client, system, _mount = build_world(
                server_config=self.record_config)
            proc = Proc(client, name="crashpoints", ledger=self.ledger)
        else:
            system = System.booted(self.record_config)
            proc = Proc(system, name="crashpoints", ledger=self.ledger)
        force_sanitizer(self.sanitize, system, proc.system)
        system.sync()  # quiesce: the base images below are fully durable
        system.tracer.enabled = True  # violations carry request span trees
        stores = [member.store for member in system.volume.members]
        base = [store.clone() for store in stores]  # at journal start
        for member in system.volume.members:
            member.disk.journal = journal
        rng = random.Random(self.seed)
        workload = _WORKLOADS[self.preset.workload]
        system.run(workload(proc, rng, self.preset),
                   name="crashpoints-record")
        system.sync()  # ends with a FLUSH: the journal closes drained
        # Journal/data-plane self-check: replaying each member's events
        # over its base image must reproduce its final durable store.
        replay = [store.clone() for store in base]
        pending: list[list[JournalEvent]] = [[] for _ in base]
        for ev in journal:
            self._apply_event(replay[ev.member], pending[ev.member], ev)
        if any(pending) or [r.digest() for r in replay] != [
                store.digest() for store in stores]:
            raise SimulationError(
                "disk journal does not reproduce the recorded store "
                "(journal/data-plane incoherence)")
        return system, journal, base

    @staticmethod
    def _apply_event(store: DiskStore, pending: list[JournalEvent],
                     ev: JournalEvent) -> None:
        """Replay one event of the member whose ``store`` and ``pending``
        list these are."""
        if ev.kind == "write":
            pending.append(ev)
        elif ev.kind == "fua":
            store.write(ev.sector, ev.data)
        elif ev.kind == "destage":
            head = pending.pop(0)
            assert head.seq == ev.seq, "journal out of order"
            store.write(head.sector, head.data)
        elif ev.kind == "flush":
            assert not pending, "flush with entries still pending"
        elif ev.kind == "drop":  # pragma: no cover - recording never dies
            pending.clear()

    # -- legal subsets -----------------------------------------------------
    def _legal_subsets(self, pending: list[JournalEvent]):
        """Yield every legal destage subset as a list of entries (in cache
        order).  Epochs between B_ORDER entries allow FIFO-with-window
        reordering; barrier entries are all-or-nothing and strictly
        ordered against both sides."""
        epochs: list[tuple[bool, list[JournalEvent]]] = []
        for e in pending:
            if e.ordered:
                epochs.append((True, [e]))
            elif not epochs or epochs[-1][0]:
                epochs.append((False, [e]))
            else:
                epochs[-1][1].append(e)
        yield []
        prefix: list[JournalEvent] = []
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
        for k in range(1, self.preset.window):
            for combo in combinations(range(j_max), k):
                yield frozenset(combo)

    def _torn_candidates(self, pending: list[JournalEvent],
                         subset: list[JournalEvent]) -> list[JournalEvent]:
        """Entries that could legally be mid-destage after ``subset``."""
        chosen = {e.seq for e in subset}
        out: list[JournalEvent] = []
        for e in pending:
            if len(out) >= self.preset.torn_limit:
                break
            if e.seq not in chosen and self._subset_legal(
                    pending, chosen | {e.seq}):
                out.append(e)
        return out

    def _subset_legal(self, pending: list[JournalEvent], chosen: set) -> bool:
        holes = 0
        barrier_blocked = False
        for e in pending:
            if e.seq in chosen:
                if barrier_blocked or holes >= self.preset.window:
                    return False
                if e.ordered and holes > 0:
                    return False
            else:
                holes += 1
                if e.ordered:
                    barrier_blocked = True
        return True

    # -- materialization ---------------------------------------------------
    @staticmethod
    def _materialize(base: DiskStore, subset: list[JournalEvent],
                     torn: "tuple[JournalEvent, int] | None") -> DiskStore:
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

    def _member_choices(self, durable: DiskStore, pending: list[JournalEvent],
                        inflight: Any) -> list[_Choice]:
        """Every legal crash image of one member, in enumeration order:
        each legal destage subset, then its torn variants — of an entry
        that could be mid-destage, or of ``inflight``, the member's next
        journal event when it is a media write.  The first is the durable
        image itself."""
        torn_media = ([inflight] if inflight is not None
                      and inflight.kind == "fua" and inflight.nsectors > 1
                      else [])
        out = []
        for subset in self._legal_subsets(pending):
            variants: list["tuple[JournalEvent, int] | None"] = [None]
            for e in self._torn_candidates(pending, subset) + torn_media:
                for nsec in self._torn_prefixes(e.nsectors):
                    variants.append((e, nsec))
            out.extend(_Choice(pending, subset, torn,
                               self._materialize(durable, subset, torn))
                       for torn in variants)
        return out

    def _states(self, choices: list[list[_Choice]], mirror: bool,
                final: list[DiskStore]):
        """The machine's crash states from its members' choices.

        A stripe (or the single disk) is read from every member at once:
        its states are the product of the members' choices.  A mirror
        comes back by resyncing the other legs from one, so its states
        are each leg's choices alone, then each leg's death — its durable
        image, its cache lost, beside legs that ran to the end."""
        if not mirror:
            for combo in product(*choices):
                yield _State([c.image for c in combo], combo)
            return
        members = range(len(choices))
        for leg in members:
            for c in choices[leg]:
                yield _State([c.image if m == leg else choices[m][0].image
                              for m in members], (c,), f"leg{leg}:", leg=leg)
        for victim in members:
            c = choices[victim][0]
            yield _State([c.image if m == victim else final[m]
                          for m in members], (c,), f"kill{victim}:",
                         victim=victim)

    # -- verification ------------------------------------------------------
    def _certain(self, at: int) -> "Callable[[int], bool] | None":
        """When a namespace op that ended at a position is durable by crash
        point ``at``: at once when its metadata is FUA-written (None: at
        completion, so before the event was recorded), else once every
        member has drained its barrier entries in a later flush."""
        if not self.record_config.ordered_metadata:
            return None
        return partial(settled, self._flushes, at)

    def _verify_state(self, images: list[DiskStore], at: int,
                      leg: "int | None" = None) -> tuple[list, int]:
        """Boot the member ``images`` (a mirror resynced from ``leg``),
        fsck-repair the logical image, remount it and check the ledger
        folded at crash point ``at``.

        Returns (violations as (category, detail) pairs, repair count).
        """
        survivor = System(self.verify_config,
                          store=[img.clone() for img in images])
        for other in range(len(images) if leg is not None else 0):
            if other != leg:  # md's recovery after an unclean shutdown
                survivor.run(survivor.volume.resync(other),
                             name="crashpoints-resync")
        report = fsck(survivor.store, repair=True)
        verify = fsck(survivor.store)
        if not verify.clean:
            return [(
                "fsck_nonconvergent",
                f"{len(verify.findings)} finding(s) survive repair; "
                f"first: {verify.findings[0]}")], len(report.repairs)
        return (self._check_promises(survivor, at, "crashpoint_survivor"),
                len(report.repairs))

    def _verify_kill(self, images: list[DiskStore], victim: int,
                     at: int) -> tuple[list, int]:
        """A mirror leg died: every promise must hold degraded, resync
        must make the legs identical, and the result must verify whole."""
        survivor = System(self.verify_config,
                          store=[img.clone() for img in images])
        volume = survivor.volume
        volume.members[victim].failed = True
        problems = self._check_promises(survivor, at, "crashpoint_degraded")
        survivor.sync()
        survivor.run(volume.resync(victim), name="crashpoints-resync")
        stores = [member.store for member in volume.members]
        if len({store.digest() for store in stores}) > 1:
            problems.append(("resync_mismatch",
                             f"leg {victim} differs from the survivor "
                             f"after resync"))
        more, repairs = self._verify_state(stores, at)
        return problems + more, repairs

    def _check_promises(self, survivor: System, at: int,
                        checkpoint: str) -> list[tuple[str, str]]:
        """Mount ``survivor``, :func:`check` the ledger on it, then run the
        deep sanitizer sweep on the quiesced machine."""
        problems: list[tuple[str, str]] = []
        try:
            survivor.run(survivor.mount_fs())
            force_sanitizer(self.sanitize, survivor)
            proc = Proc(survivor, name="crashpoints-verify")
            problems.extend(check(proc, self.ledger, at, self._certain(at)))
            survivor.sanitizer.checkpoint(checkpoint, idle=True, deep=True)
        except SanitizerError as exc:
            problems.append(("sanitizer", str(exc).split("\n")[0]))
        except (ReproError, SimulationError) as exc:
            problems.append(("remount_failed",
                             f"{type(exc).__name__}: {exc}"))
        return problems

    # -- the sweep ---------------------------------------------------------
    def run(self) -> CrashpointReport:
        system, journal, base = self._record()
        self.recorded = system
        members = range(len(base))
        self._flushes = [[i for i, ev in enumerate(journal)
                          if ev.kind == "flush" and ev.member == m]
                         for m in members]
        report = self.stats
        report.journal_events = len(journal)
        report.contract_events = len(self.ledger.events)
        report.durability_points = self.ledger.promises

        mirror = system.volume.kind == "mirror"
        final = [member.store for member in system.volume.members]
        durable = [store.clone() for store in base]
        pending: list[list[JournalEvent]] = [[] for _ in members]
        seen: dict[str, str] = {}      # state key -> verdict

        def explore_point(index: int) -> bool:
            """Enumerate crash states at journal index ``index``; returns
            False once the raw-state budget is exhausted."""
            report.crash_points += 1
            # Each member's next event, if its drive had begun it: the
            # media write that may be mid-transfer when the power dies here.
            inflight: dict[int, Any] = {}
            for ev in islice(journal, index, None):
                if len(inflight) == len(base):
                    break
                inflight.setdefault(ev.member,
                                    ev if ev.issued <= index else None)
            choices = [self._member_choices(durable[m], pending[m],
                                            inflight.get(m))
                       for m in members]
            for state in self._states(choices, mirror, final):
                if (self.max_states is not None
                        and report.raw_states >= self.max_states):
                    report.states_truncated = True
                    return False
                report.raw_states += 1
                key = state.key()
                if key in seen:
                    continue
                report.distinct_states += 1
                if state.victim is not None:
                    # A dead leg's mirror ran to the end: every promise
                    # counts.
                    problems, repairs = self._verify_kill(
                        state.images, state.victim, len(journal))
                else:
                    problems, repairs = self._verify_state(
                        state.images, index, state.leg)
                report.fsck_repairs += repairs
                verdict = ("ok" if not problems else
                           "+".join(sorted({c for c, _ in problems})))
                seen[key] = verdict
                self._state_lines.append(f"{key} {verdict}")
                if problems:
                    self._record_violations(state, index, problems,
                                            len(base) > 1)
            return True

        budget_ok = True
        for i, ev in enumerate(journal):
            # A flush marker changes no state: the previous point covered it.
            if budget_ok and not (i > 0 and journal[i - 1].kind == "flush"):
                budget_ok = explore_point(i)
            self._apply_event(durable[ev.member], pending[ev.member], ev)
        if budget_ok:
            explore_point(len(journal))

        return report

    def _record_violations(self, state: _State, index: int,
                           problems: list[tuple[str, str]],
                           tag: bool) -> None:
        """One record per problem of a state, naming the entries it
        dropped (member-tagged on a volume), what it tore, and up to three
        span trees of the requests those entries served."""
        dropped, spans, torn = [], [], []
        for c in state.choices:
            kept = {e.seq for e in c.subset}
            for e in c.pending:
                if e.seq in kept:
                    continue
                dropped.append((f"m{e.member} " if tag else "")
                               + _describe(e))
                tree = render_request(e.request)
                if len(spans) < 3 and tree is not None and tree not in spans:
                    spans.append(tree)
            if c.torn is not None:
                torn.append(f"{_describe(c.torn[0])} torn at {c.torn[1]} "
                            f"sectors")
        # A record is a violation: fsck_nonconvergent, remount_failed,
        # one of check's kinds (missing, short, wrong_bytes, not_removed),
        # resync_mismatch or sanitizer.
        for category, detail in problems:
            self.records.append({
                "state": state.key(width=16), "category": category,
                "detail": detail, "event_index": index,
                "dropped": dropped, "torn": "; ".join(torn) or None,
                "spans": spans})
