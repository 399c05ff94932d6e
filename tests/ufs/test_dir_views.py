"""Directory views: each cached directory block is decoded once per content.

``ufs/dir.py`` answers ``lookup`` and ``entries`` from a view hung on the
block's buffer (``MetaBuf.view``), and ``enter`` / ``remove`` find their
slot in the view's records, patching records and bytes together; a view
is trusted only while the buffer's bytes equal the bytes it was decoded
from.  The oracles are the code the view replaced, kept below verbatim:
the decode-per-call ``lookup`` / ``entries``, and the byte walkers
``_try_insert`` / ``_find_in_block`` that create and unlink used.  After
any sequence of creates, unlinks, renames and mkdirs, both sides must
return the same inode, the same readdir order and the same simulated
``dirscan`` charges, and every create or unlink must leave the same block
bytes as the byte walk does on a copy of each block.  The sanitizer (on
for every test) additionally holds every resident view to a fresh decode
at each quiesce.

Names are short or at the 59-character limit in four-byte characters
(230 bytes encoded, two entries to a 512-byte chunk), so directories
spill into a second block and freed slots are reused.  The model also
frees an entry in place, as fsck's repair of a dangling entry does (a
free record mid-chunk, or first in its chunk), and renames one entry to
another's name, as a corruption would (a name held twice).  Set
``REPRO_DIR_VIEW_EXAMPLES`` to run the model longer (CI does).
"""

import os
from collections import Counter

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
import pytest

from repro.errors import CorruptionError, FilesystemError
from repro.kernel import Proc
from repro.ufs import bmap, dir as dirops, fsck
from repro.ufs.dir import _charge_scan, _dir_blocks
from repro.ufs.ondisk import (
    DIRBLKSIZ, Dirent, empty_dirblock, iter_dirents, set_dirent_ino,
    set_dirent_reclen,
)

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


# -- the reference: walk the bytes on every create and unlink -------------------

_HEAD = Dirent._HEAD
_HEAD_SIZE = _HEAD.size


def _entry_span(block: "bytes | bytearray", offset: int) -> tuple[int, int, int]:
    """(ino, reclen, namelen) at ``offset``."""
    return _HEAD.unpack_from(block, offset)


def _try_insert(block: bytearray, name: str, ino: int, needed: int
                ) -> int | None:
    """Claim space for the entry in any DIRBLKSIZ chunk of ``block``;
    returns the offset it was written at, None if no span is large enough."""
    for chunk in range(0, len(block), DIRBLKSIZ):
        offset = chunk
        while offset < chunk + DIRBLKSIZ:
            e_ino, reclen, namelen = _entry_span(block, offset)
            if e_ino == 0:
                # A fully free slot.
                if reclen >= needed:
                    _write_entry(block, offset, ino, name, reclen)
                    return offset
            else:
                used = (_HEAD_SIZE + namelen + 3) & ~3
                spare = reclen - used
                if spare >= needed:
                    # Shrink this entry; the new one takes the tail space.
                    set_dirent_reclen(block, offset, used)
                    _write_entry(block, offset + used, ino, name, spare)
                    return offset + used
            offset += reclen
    return None


def _write_entry(block: bytearray, offset: int, ino: int, name: str,
                 reclen: int) -> None:
    encoded = name.encode()
    _HEAD.pack_into(block, offset, ino, reclen, len(encoded))
    block[offset + _HEAD_SIZE:offset + _HEAD_SIZE + len(encoded)] = encoded


def _find_in_block(block: bytearray, name: str) -> "tuple[int, int | None, int] | None":
    """(offset, previous entry offset in chunk, ino) of ``name``, or None."""
    encoded = name.encode()
    for chunk in range(0, len(block), DIRBLKSIZ):
        offset = chunk
        prev: int | None = None
        while offset < chunk + DIRBLKSIZ:
            ino, reclen, namelen = _entry_span(block, offset)
            if ino != 0 and block[offset + _HEAD_SIZE:offset + _HEAD_SIZE + namelen] == encoded:
                return offset, prev, ino
            prev = offset
            offset += reclen
    return None


def ref_enter(blocks, name, ino, bsize):
    """What the byte-walking ``enter`` did to a directory's blocks: the
    first span large enough in any block, else one fresh block."""
    needed = (_HEAD_SIZE + len(name.encode()) + 3) & ~3
    for block in blocks:
        if _try_insert(block, name, ino, needed) is not None:
            return
    blocks.append(bytearray(empty_dirblock(bsize)))
    assert _try_insert(blocks[-1], name, ino, needed) is not None


def ref_remove(blocks, name):
    """What the byte-walking ``remove`` did; returns the inode number."""
    for block in blocks:
        hit = _find_in_block(block, name)
        if hit is None:
            continue
        offset, prev_offset, ino = hit
        if prev_offset is not None:
            # Merge into the predecessor's record length.
            _, prev_reclen, _ = _entry_span(block, prev_offset)
            _, reclen, _ = _entry_span(block, offset)
            set_dirent_reclen(block, prev_offset, prev_reclen + reclen)
        else:
            set_dirent_ino(block, offset, 0)  # ino = 0: free slot
        return ino
    raise FilesystemError(f"{name!r} not found")


def block_copies(mount, dp):
    """A copy of each of the directory's blocks, in order."""
    copies = []
    for blkno in range(_dir_blocks(dp)):
        addr = yield from bmap.get_pointer(mount, dp, blkno)
        meta = yield from mount.metacache.bread(addr)
        copies.append(bytearray(meta.data))
    return copies


def byte_checked(real_enter, real_remove):
    """``enter`` / ``remove`` that run the byte walk on a copy of every
    block beside the real call: same bytes after, same ino, same charges
    (an enter's are its lookup's; the walk of a remove charged none)."""

    def enter(mount, dp, name, ino):
        blocks = yield from block_copies(mount, dp)
        _, want = yield from charged(mount, ref_lookup(mount, dp, name))
        _, got = yield from charged(mount, real_enter(mount, dp, name, ino))
        ref_enter(blocks, name, ino, mount.sb.bsize)
        assert (yield from block_copies(mount, dp)) == blocks
        assert got == want

    def remove(mount, dp, name):
        blocks = yield from block_copies(mount, dp)
        ino, got = yield from charged(mount, real_remove(mount, dp, name))
        assert ino == ref_remove(blocks, name)
        assert (yield from block_copies(mount, dp)) == blocks
        assert got == []
        return ino

    return enter, remove


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
    st.tuples(st.just("zap"), names),
    st.tuples(st.just("dup"), names, names),
)

EXAMPLES = int(os.environ.get("REPRO_DIR_VIEW_EXAMPLES", "50"))


def patch_entry(mount, dp, name, patch):
    """Apply ``patch(data, offset)`` to ``name``'s first entry behind the
    view's back and write the block, as an fsck repair would."""
    for blkno in range(_dir_blocks(dp)):
        addr = yield from bmap.get_pointer(mount, dp, blkno)
        meta = yield from mount.metacache.bread(addr)
        for offset, _, e_name in iter_dirents(bytes(meta.data)):
            if e_name == name:
                patch(meta.data, offset)
                yield from mount.meta_write(meta)
                return
    raise AssertionError(f"{name!r} not in the directory")


def _zap(data, offset):
    set_dirent_ino(data, offset, 0)  # fsck's _repoint_dirent(..., 0)


def _renamed_to(name):
    encoded = name.encode()

    def patch(data, offset):
        data[offset + 8:offset + 8 + len(encoded)] = encoded

    return patch


@settings(max_examples=EXAMPLES, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(prefill=st.integers(0, 36), script=st.lists(ops, max_size=40))
@example(prefill=0, script=[  # a free record mid-chunk, merged into, reused
    ("create", "s0"), ("create", "s1"), ("create", "s2"), ("zap", "s1"),
    ("unlink", "s2"), ("create", "s3"), ("create", LONG[0]), ("readdir",)])
@example(prefill=4, script=[  # a chunk whose first record is free
    ("unlink", LONG[2]), ("create", "s0"), ("unlink", LONG[3]),
    ("unlink", "s0"), ("zap", LONG[0]), ("create", LONG[2]),
    ("create", LONG[3]), ("readdir",)])
@example(prefill=0, script=[  # a name held twice, either way round
    ("create", "s0"), ("create", "s1"), ("create", "s2"), ("create", "s3"),
    ("dup", "s0", "s1"), ("dup", "s3", "s2"), ("lookup", "s0"),
    ("lookup", "s3"), ("unlink", "s0"), ("lookup", "s0"), ("unlink", "s3"),
    ("create", "s1"), ("unlink", "s0"), ("unlink", "s3"), ("readdir",)])
def test_views_answer_like_a_fresh_decode(prefill, script):
    system = make_system("A")
    mount = system.mount
    proc = Proc(system)
    model = {}  # name -> "file" | "dir"
    twice = Counter()  # file name -> entries beyond the first

    def run():
        yield from proc.mkdir("/d")
        dp = (yield from mount.namei("/d")).inode
        for name in LONG[:prefill]:
            yield from proc.close((yield from proc.creat(f"/d/{name}")))
            model[name] = "file"
        for op, *args in script:
            name = args[0] if args else None
            path = f"/d/{name}"
            single = model.get(name) == "file" and not twice[name]
            if op == "create" and name not in model:
                yield from proc.close((yield from proc.creat(path)))
                model[name] = "file"
            elif op == "mkdir" and name not in model:
                yield from proc.mkdir(path)
                model[name] = "dir"
            elif op == "unlink" and twice[name]:
                yield from proc.unlink(path)
                twice[name] -= 1
            elif op == "unlink" and name in model:
                if model.pop(name) == "dir":
                    yield from proc.rmdir(path)
                else:
                    yield from proc.unlink(path)
            elif (op == "rename" and single
                  and model.get(args[1], "file") == "file"
                  and not twice[args[1]]):
                yield from proc.rename(path, f"/d/{args[1]}")
                model[args[1]] = model.pop(name)
            elif op == "zap" and single:
                yield from patch_entry(mount, dp, name, _zap)
                del model[name]
            elif (op == "dup" and single and args[1] != name
                  and model.get(args[1]) == "file" and not twice[args[1]]
                  and len(args[1].encode()) == len(name.encode())):
                yield from patch_entry(mount, dp, args[1], _renamed_to(name))
                del model[args[1]]
                twice[name] += 1
            elif op == "lookup":
                ino = yield from agree(mount, dp, name)
                assert (ino is not None) == (name in model)
            elif op == "readdir":
                listing = yield from agree(mount, dp)
                assert sorted(n for n, _ in listing) == sorted(
                    [".", "..", *model, *twice.elements()])
        for name in SHORT + LONG:
            yield from agree(mount, dp, name)
        yield from agree(mount, dp)
        return dp

    with pytest.MonkeyPatch.context() as patch:
        enter, remove = byte_checked(dirops.enter, dirops.remove)
        patch.setattr(dirops, "enter", enter)
        patch.setattr(dirops, "remove", remove)
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


@pytest.mark.parametrize("damage", ["non_utf8_name", "namelen_overrun"])
def test_a_corrupt_name_is_euclean_and_fsck_resets_its_block(system, damage):
    """A live name that is not UTF-8, or whose length runs past its record
    into the next one, is corruption: ``open`` fails EUCLEAN (not a raw
    decode error, not a name made of the next record's bytes), and fsck
    reports the directory and resets the block."""
    dp, meta = _dir_with(system, "x", "z")
    system.sync()
    off = _offset_of(meta, "x")  # "x" spans 12 bytes: "z" follows it
    if damage == "non_utf8_name":
        meta.data[off + 8] = 0xFF
    else:
        meta.data[off + 6:off + 8] = (8).to_bytes(2, "little")
    sb = system.mount.sb
    system.store.write(sb.fsb_to_sector(meta.frag_addr), bytes(meta.data))
    proc = Proc(system)
    with pytest.raises(CorruptionError):
        system.run(proc.open("/d/y"))
    assert proc.errno == "EUCLEAN"
    report = fsck(system.store)
    assert any(f.startswith(f"directory {dp.ino}: ") for f in report.findings)
    repaired = fsck(system.store.clone(), repair=True)
    assert f"reset directory block at frag {meta.frag_addr}" in repaired.repairs


def test_create_and_unlink_patch_the_view_instead_of_decoding(system,
                                                              monkeypatch):
    mount = system.mount
    dp, meta = _dir_with(system, "x")
    system.run(dirops.lookup(mount, dp, "x"))
    decodes = []
    real = dirops.dir_records
    monkeypatch.setattr(dirops, "dir_records",
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
