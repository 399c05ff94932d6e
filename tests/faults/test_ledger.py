"""The ledger of promises: recorded at the syscall boundary, folded at a
position, read back by the one check every sweep calls."""

import pytest

from repro.errors import (
    FileNotFoundError_, IsADirectoryError_, RpcTimeoutError,
)
from repro.faults import CrashpointExplorer
from repro.faults.crashpoints import settled
from repro.faults.harness import small_config
from repro.faults.ledger import Event, Ledger, check
from repro.kernel import Proc, System
from repro.sim.invariants import sanitizing

A, B, C, D = b"A" * 1024, b"B" * 512, b"C" * 512, b"D" * 512
#: What /b holds after its two O_SYNC writes: C, a 1536-byte hole, D.
CD = C + bytes(1536) + D


@pytest.fixture
def recorded():
    """A program through a ledgered Proc, one position per step: write,
    fsync, an unsynced overwrite, two O_SYNC writes, a rename over the
    first file, an unlink."""
    system = System.booted(small_config())
    clock = [0]
    ledger = Ledger(lambda: clock[0])
    proc = Proc(system, ledger=ledger)

    def program():
        fd = yield from proc.creat("/a")
        yield from proc.write(fd, A)                 # 0: dirty
        clock[0] = 1
        yield from proc.fsync(fd)                    # 1: promise A
        clock[0] = 2
        yield from proc.pwrite(fd, B, 512)           # 2: dirty A[:512] + B
        yield from proc.close(fd)
        clock[0] = 3
        fd = yield from proc.open("/b", create=True, sync=True)
        yield from proc.write(fd, C)                 # 3: promise C
        yield from proc.pwrite(fd, D, 2048)          # 3: promise CD
        yield from proc.close(fd)
        clock[0] = 4
        yield from proc.rename("/b", "/a")           # 4: /b displaces /a
        clock[0] = 5
        yield from proc.unlink("/a")                 # 5: /a removed

    system.run(program())
    return system, proc, ledger


def _view(slots):
    return {path: (s.promised, s.versions, s.alts, s.may_be_absent)
            for path, s in slots.items()}


def test_slots_fold_the_program_at_each_position(recorded):
    _system, _proc, ledger = recorded
    assert ledger.promises == 3
    assert _view(ledger.slots(0)) == {}  # dirty, nothing promised yet
    assert _view(ledger.slots(1)) == {"/a": (A, [], ["/a"], False)}
    assert _view(ledger.slots(2)) == {
        "/a": (A, [A[:512] + B], ["/a"], False)}
    assert _view(ledger.slots(3)) == {
        "/a": (A, [A[:512] + B], ["/a"], False), "/b": (CD, [], ["/b"], False)}
    assert _view(ledger.slots(4)) == {"/a": (CD, [], ["/a"], False)}
    assert _view(ledger.slots(5)) == {"/a": (None, [], ["/a"], False)}
    # Until the namespace ops are durable, either outcome is legal.
    never = ledger.slots(5, certain=lambda pos: False)
    assert _view(never) == {"/a": (CD, [], ["/b", "/a"], True)}


def test_check_reads_every_kind_back(recorded):
    system, proc, ledger = recorded
    assert check(proc, ledger) == []
    other = Proc(system)  # unledgered: its changes break the promises

    def keep(path, data):
        fd = yield from proc.creat(path)
        yield from proc.write(fd, data)
        yield from proc.fsync(fd)
        yield from proc.close(fd)

    def tamper():
        fd = yield from other.creat("/a")            # resolves again
        yield from other.close(fd)
        fd = yield from other.open("/grow")
        yield from other.pwrite(fd, D, len(A))       # past the promise
        yield from other.close(fd)
        yield from other.unlink("/gone")

    for path in ("/grow", "/gone"):
        system.run(keep(path, A))
    system.run(tamper())
    assert sorted(kind for kind, _ in check(proc, ledger)) == [
        "missing", "not_removed", "wrong_bytes"]
    assert check(proc, ledger, paths={"/grow"})[0][1] == (
        "/grow: sector at byte 1024 matches no unsynced version (0 allowed)")


def _promised_b(system):
    """A ledgered Proc that holds /b's fsynced bytes, beside a directory
    /d and an unledgered Proc to break the promise with."""
    ledger = Ledger()
    proc = Proc(system, ledger=ledger)

    def setup():
        fd = yield from proc.creat("/b")
        yield from proc.write(fd, B)
        yield from proc.fsync(fd)
        yield from proc.close(fd)
        yield from proc.mkdir("/d")

    system.run(setup())
    return proc, ledger


def test_a_refused_rename_keeps_the_targets_promise():
    """A rename the file system refuses changes nothing, so it must not
    erase what the target was promised: a later loss of /b is still seen."""
    system = System.booted(small_config())
    proc, ledger = _promised_b(system)
    before = _view(ledger.slots())
    with pytest.raises(FileNotFoundError_):
        system.run(proc.rename("/x", "/b"))      # no source
    with pytest.raises(IsADirectoryError_):
        system.run(proc.rename("/b", "/d"))      # target a directory
    assert _view(ledger.slots()) == before
    system.run(Proc(system).unlink("/b"))
    assert check(proc, ledger) == [
        ("missing", "/b: no candidate of ['/b'] survives")]


def test_a_rename_of_unknown_outcome_may_have_happened(monkeypatch):
    """A soft mount's timeout leaves the rename undecided: the target's
    old promise is forgotten and the source may be found under either
    name, as for a rename still in flight."""
    system = System.booted(small_config())
    proc, ledger = _promised_b(system)
    system.run(proc.creat("/a"))

    def timed_out(old, new):
        raise RpcTimeoutError("RENAME")
        yield

    monkeypatch.setattr(system.mount, "rename", timed_out)
    with pytest.raises(RpcTimeoutError):
        system.run(proc.rename("/b", "/a"))
    assert [ev.kind for ev in ledger.events[-2:]] == ["forget",
                                                      "rename_begin"]
    assert _view(ledger.slots()) == {"/b": (B, [], ["/b", "/a"], False)}


def test_a_short_file_is_short():
    ledger = Ledger()
    ledger.events = [Event("promise", "/a", 0, A)]
    system = System.booted(small_config())
    proc = Proc(system)

    def half():
        fd = yield from proc.creat("/a")
        yield from proc.write(fd, A[:512])
        yield from proc.close(fd)

    system.run(half())
    assert check(proc, ledger) == [
        ("short", "/a: size 512 < promised 1024 bytes")]


def test_a_namespace_op_is_certain_once_every_member_flushed():
    """B_ORDER metadata: a rename is settled only when every member has
    flushed after it; until then the file may resolve under either name."""
    ledger = Ledger()
    ledger.events = [Event("promise", "/a", 0, b"x"),
                     Event("rename", "/a", 5, new_path="/b")]
    assert ledger.slots(10, lambda pos: settled([[7], []], 10, pos)
                        )["/b"].alts == ["/a", "/b"]
    assert ledger.slots(10, lambda pos: settled([[7], [8]], 10, pos)
                        )["/b"].alts == ["/b"]


def test_dirty_versions_are_load_bearing(monkeypatch):
    """A ledger that keeps no dirty versions allows only the promised
    bytes: unsynced appends and overwrites that legally reached the
    platter then read as violations of the smoke preset."""
    real = Ledger.wrote

    def wrote_without_dirty(self, path, offset, data):
        kept = len(self.events)
        real(self, path, offset, data)
        del self.events[kept:]

    monkeypatch.setattr(Ledger, "wrote", wrote_without_dirty)
    explorer = CrashpointExplorer("smoke", seed=0)
    with sanitizing(False):
        explorer.run()
    assert explorer.records
    assert {r["category"] for r in explorer.records} <= {"short",
                                                          "wrong_bytes"}
