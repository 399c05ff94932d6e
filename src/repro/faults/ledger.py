"""One ledger of promises, filled at the syscall boundary, and one check.

The paper's write clustering holds pages back on purpose, so the only
promise a process can hold the file system to is the one made when an
fsync or an O_SYNC write returns.  A :class:`~repro.kernel.syscalls.Proc`
built with a :class:`Ledger` records, where its syscalls return, what it
was promised — the application-level persistence model of ALICE (Pillai
et al., "All File Systems Are Not Created Equal", OSDI 2014):

* ``write`` / ``pwrite``: a *dirty* event with the file's new bytes,
  recorded *before* the write issues — from then on any sector of the new
  version may legally reach the platter;
* ``creat`` of a file that holds bytes: a *dirty* event with ``b""``,
  recorded *before* the truncate issues — from then on the old bytes and
  none at all are both legal, until the next promise;
* an fsync return, or an O_SYNC write return: a *promise* of the path's
  current bytes;
* ``unlink``: *begin* before the call, *end* after it; ``rename``: the
  displaced target is forgotten, then *begin*, then *end* — a rename the
  file system refuses (ENOENT, EISDIR...) withdraws what it recorded;
* a file the process creates: a *create* event (it starts empty).

Each event is stamped with ``position()``: the crash-point explorer passes
its journal length, the sweeps that check only at the end leave the
constant default.  :meth:`Ledger.slots` folds the events up to a position
into the contract in effect there, and :func:`check` reads every slot back
through a process on the machine that came back:

* ``missing``: a promised file resolves under none of its names;
* ``short``: it holds fewer bytes than promised, or, when it was
  truncated since, than the shortest version since;
* ``wrong_bytes``: a sector matches neither the promised bytes nor any
  later dirty version — bytes past the promised end included;
* ``not_removed``: a path whose unlink completed (and, see ``certain``,
  is durable) still resolves.

The ledger follows the files its process created: writes to a file it
did not create, ``link``, ``symlink`` and stores through ``mmap`` are not
tracked, and an fd keeps the path it was opened by across a rename.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Collection, Generator, NamedTuple

from repro.errors import FileNotFoundError_, ReproError
from repro.kernel.syscalls import SEEK_END

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.syscalls import Proc

SECTOR = 512
#: The errno of a rename refused before anything changed: a missing
#: source, a directory where a file belongs, a mount with no rename.
REFUSED = {"ENOENT", "EISDIR", "ENOTDIR", "EINVAL"}


class Event(NamedTuple):
    """One recorded fact, in effect at every position at or after ``pos``."""

    kind: str        # create | dirty | promise | forget |
                     # unlink_begin | unlink | rename_begin | rename
    path: str
    pos: int
    content: bytes = b""
    new_path: str = ""


class Slot:
    """The folded contract for one path.  ``promised`` is None for a
    removed path: it must not resolve."""

    __slots__ = ("promised", "versions", "alts", "may_be_absent")

    def __init__(self, promised: "bytes | None", path: str):
        self.promised = promised
        self.versions: list[bytes] = []
        self.alts = [path]
        self.may_be_absent = False


class Ledger:
    """What one process was promised, event by event."""

    def __init__(self, position: Callable[[], int] = lambda: 0):
        self.position = position
        self.events: list[Event] = []
        #: The current bytes of every file the process created.
        self._bytes: dict[str, bytearray] = {}

    def _add(self, kind: str, path: str, content: bytes = b"",
             new_path: str = "") -> None:
        self.events.append(Event(kind, path, self.position(), content,
                                 new_path))

    # -- recording: called by Proc -----------------------------------------
    def created(self, path: str) -> None:
        self._bytes[path] = bytearray()
        self._add("create", path)

    def wrote(self, path: str, offset: int, data: bytes) -> None:
        cur = self._bytes.get(path)
        if cur is None:
            return
        if len(cur) < offset:
            cur.extend(bytes(offset - len(cur)))
        cur[offset:offset + len(data)] = data
        self._add("dirty", path, bytes(cur))

    def truncated(self, path: str) -> None:
        cur = self._bytes.get(path)
        if cur is None:
            return
        cur.clear()
        self._add("dirty", path, b"")

    def synced(self, path: str) -> None:
        cur = self._bytes.get(path)
        if cur is not None:
            self._add("promise", path, bytes(cur))

    def unlinking(self, path: str, call: Generator[Any, Any, None]
                  ) -> Generator[Any, Any, None]:
        """Record an unlink around the file system's ``call``."""
        self._add("unlink_begin", path)
        yield from call
        self._bytes.pop(path, None)
        self._add("unlink", path)

    def renaming(self, old: str, new: str, call: Generator[Any, Any, None]
                 ) -> Generator[Any, Any, None]:
        """Record a rename around the file system's ``call``.  A rename
        refused before anything changed withdraws what it recorded; any
        other failure (a soft mount's timeout) may have happened and
        keeps it."""
        mark = len(self.events)
        self._add("forget", new)
        self._add("rename_begin", old, new_path=new)
        try:
            yield from call
        except ReproError as error:
            if error.code in REFUSED:
                del self.events[mark:]
            raise
        cur = self._bytes.pop(old, None)
        self._bytes.pop(new, None)
        if cur is not None:
            self._bytes[new] = cur
        self._add("rename", old, new_path=new)

    # -- folding -------------------------------------------------------------
    @property
    def promises(self) -> int:
        return sum(ev.kind == "promise" for ev in self.events)

    def slots(self, at: "int | None" = None,
              certain: "Callable[[int], bool] | None" = None
              ) -> dict[str, Slot]:
        """The contract in effect at position ``at`` (None: after every
        event).  ``certain(pos)`` says whether a namespace op that ended at
        ``pos`` is durable by ``at``; by default every ended op is."""
        slots: dict[str, Slot] = {}
        for ev in self.events:
            if at is not None and ev.pos > at:
                break
            slot = slots.get(ev.path)
            kind = ev.kind
            if kind == "promise":
                slots[ev.path] = Slot(ev.content, ev.path)
            elif kind == "create":
                if slot is not None and slot.promised is None:
                    del slots[ev.path]  # it may resolve again
            elif kind == "dirty":
                if slot is not None and slot.promised is not None:
                    slot.versions.append(ev.content)
            elif kind == "forget":
                slots.pop(ev.path, None)
            elif kind == "unlink_begin":
                if slot is not None:
                    slot.may_be_absent = True
            elif kind == "unlink":
                if certain is None or certain(ev.pos):
                    slots[ev.path] = Slot(None, ev.path)
                # else: may_be_absent since unlink_begin covers it
            elif kind == "rename_begin":
                if slot is not None and ev.new_path not in slot.alts:
                    slot.alts.append(ev.new_path)
            elif kind == "rename":
                slot = slots.pop(ev.path, None)
                if slot is not None:
                    if certain is None or certain(ev.pos):
                        slot.alts = [ev.new_path]
                    elif ev.new_path not in slot.alts:
                        slot.alts.append(ev.new_path)
                    slots[ev.new_path] = slot
        return slots


# ---------------------------------------------------------------------------
# the one check
# ---------------------------------------------------------------------------

def check(proc: "Proc", ledger: Ledger, at: "int | None" = None,
          certain: "Callable[[int], bool] | None" = None,
          paths: "Collection[str] | None" = None) -> list[tuple[str, str]]:
    """Read every slot of ``ledger`` folded at ``at`` (only those in
    ``paths``, when given) back through ``proc``; returns the violations as
    ``(kind, detail)`` pairs, at most one per path."""
    slots = ledger.slots(at, certain)
    todo = [(path, slots[path]) for path in sorted(slots)
            if paths is None or path in paths]
    return proc.system.run(_check(proc, todo), name="ledger-check")


def _check(proc: "Proc", todo: "list[tuple[str, Slot]]"
           ) -> Generator[Any, Any, list[tuple[str, str]]]:
    problems: list[tuple[str, str]] = []
    for path, slot in todo:
        found, data = yield from _read_back(proc, slot.alts)
        problem = _judge(path, slot, found, data)
        if problem is not None:
            problems.append(problem)
    return problems


def _read_back(proc: "Proc", names: "list[str]"
               ) -> Generator[Any, Any, "tuple[str | None, bytes]"]:
    """The first of ``names`` that resolves and its bytes: one open each,
    the size from ``lseek(fd, 0, SEEK_END)``."""
    for name in names:
        try:
            fd = yield from proc.open(name)
        except FileNotFoundError_:
            continue
        size = yield from proc.lseek(fd, 0, SEEK_END)
        data = (yield from proc.pread(fd, size, 0)) if size else b""
        yield from proc.close(fd)
        return name, data
    return None, b""


def _judge(path: str, slot: Slot, found: "str | None",
           data: bytes) -> "tuple[str, str] | None":
    if slot.promised is None:
        if found is not None:
            return ("not_removed", f"{path}: resolves after its unlink")
        return None
    if found is None:
        if slot.may_be_absent:
            return None
        return ("missing", f"{path}: no candidate of {slot.alts} survives")
    n = len(slot.promised)
    # Writes only grow a file: a version shorter than the promise is a
    # truncation, and the file may legally be that short.
    floor = min([n, *map(len, slot.versions)])
    if len(data) < floor:
        return ("short", f"{found}: size {len(data)} < promised {floor} bytes")
    for off in range(0, len(data), SECTOR):
        got = data[off:off + SECTOR]
        allowed = [v[off:off + SECTOR][:len(got)]
                   for v in (slot.promised, *slot.versions) if off < len(v)]
        if got not in allowed:
            what = "promised" if off < n else "unsynced"
            # One bad sector proves the loss; keep output short.
            return ("wrong_bytes",
                    f"{found}: sector at byte {off} matches no {what} "
                    f"version ({len(allowed)} allowed)")
    return None
