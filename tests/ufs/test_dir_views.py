"""Directory views: each cached directory block is decoded once per content.

``ufs/dir.py`` answers ``lookup`` and ``entries`` from a view hung on the
block's buffer (``MetaBuf.view``), patched in place by ``enter`` and
``remove`` and trusted only while the buffer's bytes equal the bytes it was
decoded from.  The oracle is the decode-per-call ``lookup`` / ``entries``
the view replaced, kept below verbatim: after any sequence of creates,
unlinks, renames and mkdirs, both must return the same inode, the same
readdir order and the same simulated ``dirscan`` charges.  The sanitizer
(on for every test) additionally holds every resident view to a fresh
decode at each quiesce.

Names are short or at the 59-character limit in four-byte characters
(230 bytes encoded, two entries to a 512-byte chunk), so directories
spill into a second block and freed slots are reused.  Set
``REPRO_DIR_VIEW_EXAMPLES`` to run the model longer (CI does).
"""

import os

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
import pytest

from repro.errors import CorruptionError, FilesystemError
from repro.kernel import Proc
from repro.ufs import bmap, dir as dirops
from repro.ufs.dir import _charge_scan, _dir_blocks
from repro.ufs.ondisk import iter_dirents, set_dirent_ino

from tests.ufs.conftest import make_system


# -- the reference: decode every block on every call --------------------------

def ref_lookup(mount, dp, name):
    """Find ``name`` in directory ``dp``; returns its inode number or None."""
    for blkno in range(_dir_blocks(dp)):
        addr = yield from bmap.get_pointer(mount, dp, blkno)
        if addr == bmap.HOLE:
            raise FilesystemError(f"hole in directory {dp.ino}")
        meta = yield from mount.metacache.bread(addr)
        entries = iter_dirents(bytes(meta.data))
        yield from _charge_scan(mount, max(1, len(entries)))
        for _, ino, entry_name in entries:
            if entry_name == name:
                return ino
    return None


def ref_entries(mount, dp):
    """All (name, ino) pairs, including '.' and '..'."""
    found = []
    for blkno in range(_dir_blocks(dp)):
        addr = yield from bmap.get_pointer(mount, dp, blkno)
        meta = yield from mount.metacache.bread(addr)
        listed = iter_dirents(bytes(meta.data))
        yield from _charge_scan(mount, max(1, len(listed)))
        found.extend((name, ino) for _, ino, name in listed)
    return found


def charged(mount, call):
    """Run ``call`` (a generator) and return (its result, the dirscan
    charges it made, in order)."""
    log = []
    work = mount.cpu.work

    def logging_work(tag, seconds):
        if tag == "dirscan":
            log.append(seconds)
        return work(tag, seconds)

    mount.cpu.work = logging_work
    try:
        result = yield from call
    finally:
        del mount.cpu.work
    return result, log


def agree(mount, dp, name=None):
    """Both implementations, one after the other, on the same blocks."""
    if name is None:
        new = yield from charged(mount, dirops.entries(mount, dp))
        old = yield from charged(mount, ref_entries(mount, dp))
    else:
        new = yield from charged(mount, dirops.lookup(mount, dp, name))
        old = yield from charged(mount, ref_lookup(mount, dp, name))
    assert new == old
    return new[0]


# -- the model ------------------------------------------------------------------

LONG = [chr(0x1D11E) * 57 + f"{i:02d}" for i in range(40)]  # 230 bytes
SHORT = [f"s{i}" for i in range(8)]
names = st.sampled_from(SHORT + LONG)

ops = st.one_of(
    st.tuples(st.just("create"), names),
    st.tuples(st.just("unlink"), names),
    st.tuples(st.just("rename"), names, names),
    st.tuples(st.just("mkdir"), names),
    st.tuples(st.just("lookup"), names),
    st.tuples(st.just("readdir")),
)

EXAMPLES = int(os.environ.get("REPRO_DIR_VIEW_EXAMPLES", "50"))


@settings(max_examples=EXAMPLES, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(prefill=st.integers(0, 36), script=st.lists(ops, max_size=40))
def test_views_answer_like_a_fresh_decode(prefill, script):
    system = make_system("A")
    mount = system.mount
    proc = Proc(system)
    model = {}  # name -> "file" | "dir"

    def run():
        yield from proc.mkdir("/d")
        dp = (yield from mount.namei("/d")).inode
        for name in LONG[:prefill]:
            yield from proc.close((yield from proc.creat(f"/d/{name}")))
            model[name] = "file"
        for op, *args in script:
            name = args[0] if args else None
            path = f"/d/{name}"
            if op == "create" and name not in model:
                yield from proc.close((yield from proc.creat(path)))
                model[name] = "file"
            elif op == "mkdir" and name not in model:
                yield from proc.mkdir(path)
                model[name] = "dir"
            elif op == "unlink" and name in model:
                if model.pop(name) == "dir":
                    yield from proc.rmdir(path)
                else:
                    yield from proc.unlink(path)
            elif (op == "rename" and model.get(name) == "file"
                  and model.get(args[1], "file") == "file"):
                yield from proc.rename(path, f"/d/{args[1]}")
                model[args[1]] = model.pop(name)
            elif op == "lookup":
                ino = yield from agree(mount, dp, name)
                assert (ino is not None) == (name in model)
            elif op == "readdir":
                listing = yield from agree(mount, dp)
                assert sorted(n for n, _ in listing) == sorted(
                    [".", "..", *model])
        for name in SHORT + LONG:
            yield from agree(mount, dp, name)
        yield from agree(mount, dp)
        return dp

    dp = system.run(run())
    if prefill > 32:
        assert _dir_blocks(dp) > 1


# -- hand cases ------------------------------------------------------------------

def _dir_with(system, *files):
    proc = Proc(system)
    mount = system.mount

    def run():
        yield from proc.mkdir("/d")
        for name in files:
            yield from proc.close((yield from proc.creat(f"/d/{name}")))
        dp = (yield from mount.namei("/d")).inode
        addr = yield from bmap.get_pointer(mount, dp, 0)
        return dp, mount.metacache.peek(addr)

    return system.run(run())


def _offset_of(meta, name):
    return next(off for off, _, n in iter_dirents(bytes(meta.data))
                if n == name)


def test_a_block_edited_outside_dir_is_seen_by_the_next_lookup(system):
    mount = system.mount
    dp, meta = _dir_with(system, "x")
    ino = system.run(dirops.lookup(mount, dp, "x"))
    assert meta.view is not None  # the lookup left a view behind
    set_dirent_ino(meta.data, _offset_of(meta, "x"), ino + 100)
    assert system.run(dirops.lookup(mount, dp, "x")) == ino + 100
    listing = system.run(dirops.entries(mount, dp))
    assert ("x", ino + 100) in listing


def test_a_duplicated_name_resolves_first_wins_like_the_scan(system):
    mount = system.mount
    dp, meta = _dir_with(system, "a", "b")
    ino_a = system.run(dirops.lookup(mount, dp, "a"))
    ino_b = system.run(dirops.lookup(mount, dp, "b"))
    # Corrupt "b" into a second "a" (same length), behind the view's back.
    off = _offset_of(meta, "b")
    meta.data[off + 8:off + 9] = b"a"
    assert system.run(dirops.lookup(mount, dp, "a")) == ino_a
    assert system.run(ref_lookup(mount, dp, "a")) == ino_a
    # Removing the name takes the first; the second is then what is found.
    assert system.run(dirops.remove(mount, dp, "a")) == ino_a
    assert system.run(dirops.lookup(mount, dp, "a")) == ino_b
    assert system.run(dirops.lookup(mount, dp, "b")) is None


def test_a_corrupt_reclen_raises_every_time_and_is_never_cached(system):
    mount = system.mount
    dp, meta = _dir_with(system, "x")
    ino = system.run(dirops.lookup(mount, dp, "x"))
    good = bytes(meta.data)
    off = _offset_of(meta, "x")
    meta.data[off + 4:off + 6] = (3).to_bytes(2, "little")  # reclen 3
    for _ in range(2):
        with pytest.raises(CorruptionError):
            system.run(dirops.lookup(mount, dp, "x"))
        assert meta.view.image != meta.data  # only the old view remains
    meta.data[:] = good
    assert system.run(dirops.lookup(mount, dp, "x")) == ino


def test_create_and_unlink_patch_the_view_instead_of_decoding(system,
                                                              monkeypatch):
    mount = system.mount
    dp, meta = _dir_with(system, "x")
    system.run(dirops.lookup(mount, dp, "x"))
    decodes = []
    real = dirops.iter_dirents
    monkeypatch.setattr(dirops, "iter_dirents",
                        lambda image: decodes.append(1) or real(image))
    proc = Proc(system)

    def churn():
        for i in range(5):
            yield from proc.close((yield from proc.creat(f"/d/n{i}")))
        yield from proc.unlink("/d/n2")
        yield from proc.rename("/d/n3", "/d/m3")
        return (yield from proc.readdir("/d"))

    listing = system.run(churn())
    assert decodes == []
    assert [n for n, _ in listing] == [".", "..", "x", "n0", "n1", "m3", "n4"]
