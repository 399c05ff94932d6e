"""Directory operations.

Directories are files of variable-length entries that never cross a
DIRBLKSIZ (512-byte) boundary.  Deletion merges an entry's record length
into its predecessor (classic FFS compaction); insertion claims the first
sufficient free span.  Directory blocks move through the metadata buffer
cache, and directory *updates* are written synchronously — the consistency
discipline whose cost motivates the paper's B_ORDER proposal.  A block's
buffer keeps its decoded entries (:class:`DirView`), so a block is decoded
once per content rather than once per lookup; the simulated scan is still
charged entry by entry.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import TYPE_CHECKING, Any, Generator

from repro.errors import FileExistsError_, FilesystemError
from repro.ufs import bmap
from repro.ufs.ondisk import (
    DIRBLKSIZ, Dirent, empty_dirblock, iter_dirents, set_dirent_ino,
    set_dirent_reclen,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.ufs.inode import Inode
    from repro.ufs.metacache import MetaBuf
    from repro.ufs.mount import UfsMount

_HEAD = Dirent._HEAD
_HEAD_SIZE = _HEAD.size


def _entry_span(block: "bytes | bytearray", offset: int) -> tuple[int, int, int]:
    """(ino, reclen, namelen) at ``offset``."""
    return _HEAD.unpack_from(block, offset)


def _dir_blocks(ip: "Inode") -> int:
    bsize = ip.mount.sb.bsize
    if ip.size % bsize:
        raise FilesystemError(f"directory {ip.ino} size not block aligned")
    return ip.size // bsize


class DirView:
    """A directory block decoded once per content: its live entries as
    :func:`iter_dirents` lists them, and a first-wins ``name -> ino``
    index (what a scan from the top finds first).  It describes ``image``
    and is trusted only while the buffer's bytes still equal it."""

    __slots__ = ("image", "entries", "index")

    def __init__(self, image: bytes):
        self.image = image
        self.entries = iter_dirents(image)
        self.reindex()

    def reindex(self) -> None:
        self.index = {name: ino for _, ino, name in reversed(self.entries)}


def _view(meta: "MetaBuf") -> DirView:
    """The buffer's directory view, decoded again only if its bytes moved
    since the last decode (a corrupt block raises and caches nothing)."""
    view = meta.view
    if view is None or meta.data != view.image:
        view = meta.view = DirView(bytes(meta.data))
    return view


def _charge_scan(mount: "UfsMount", entries: int) -> Generator[Any, Any, None]:
    yield from mount.cpu.work(
        "dirscan", entries * mount.cpu.costs.dirscan_entry
    )


def lookup(mount: "UfsMount", dp: "Inode", name: str) -> Generator[Any, Any, int | None]:
    """Find ``name`` in directory ``dp``; returns its inode number or None."""
    for blkno in range(_dir_blocks(dp)):
        addr = yield from bmap.get_pointer(mount, dp, blkno)
        if addr == bmap.HOLE:
            raise FilesystemError(f"hole in directory {dp.ino}")
        meta = yield from mount.metacache.bread(addr)
        view = _view(meta)
        # Read before the charge yields: what the block held when read.
        ino = view.index.get(name)
        yield from _charge_scan(mount, max(1, len(view.entries)))
        if ino is not None:
            return ino
    return None


def entries(mount: "UfsMount", dp: "Inode") -> Generator[Any, Any, list[tuple[str, int]]]:
    """All (name, ino) pairs, including '.' and '..'."""
    found: list[tuple[str, int]] = []
    for blkno in range(_dir_blocks(dp)):
        addr = yield from bmap.get_pointer(mount, dp, blkno)
        meta = yield from mount.metacache.bread(addr)
        listed = _view(meta).entries
        found.extend((name, ino) for _, ino, name in listed)
        yield from _charge_scan(mount, max(1, len(listed)))
    return found


def is_empty(mount: "UfsMount", dp: "Inode") -> Generator[Any, Any, bool]:
    """True if the directory holds only '.' and '..'."""
    listed = yield from entries(mount, dp)
    return all(name in (".", "..") for name, _ in listed)


def enter(mount: "UfsMount", dp: "Inode", name: str, ino: int
          ) -> Generator[Any, Any, None]:
    """Add ``name -> ino``; the directory block is written synchronously."""
    needed = Dirent(ino, name).reclen_needed
    existing = yield from lookup(mount, dp, name)
    if existing is not None:
        raise FileExistsError_(f"{name!r} already exists")
    for blkno in range(_dir_blocks(dp)):
        addr = yield from bmap.get_pointer(mount, dp, blkno)
        meta = yield from mount.metacache.bread(addr)
        if _insert(meta, name, ino, needed):
            yield from mount.meta_write(meta)
            dp.mark_dirty()
            return
    # No room: extend the directory by one block.
    blkno = _dir_blocks(dp)
    addr = yield from bmap.bmap_alloc(mount, dp, blkno, mount.sb.frag)
    meta = yield from mount.metacache.install_new(
        addr, empty_dirblock(mount.sb.bsize)
    )
    dp.size += mount.sb.bsize
    dp.mark_dirty()
    if not _insert(meta, name, ino, needed):
        raise FilesystemError("fresh directory block cannot hold entry")
    yield from mount.meta_write(meta)
    yield from mount.write_inode(dp, sync=True)


def _insert(meta: "MetaBuf", name: str, ino: int, needed: int) -> bool:
    """Add the entry to ``meta``'s block if it fits, and the view with it:
    one entry placed in offset order, not a re-decode."""
    view = _view(meta)
    offset = _try_insert(meta.data, name, ino, needed)
    if offset is None:
        return False
    insort(view.entries, (offset, ino, name))
    if name in view.index:
        view.reindex()  # a duplicate (corrupt block): the first must win
    else:
        view.index[name] = ino
    view.image = bytes(meta.data)
    return True


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


def remove(mount: "UfsMount", dp: "Inode", name: str) -> Generator[Any, Any, int]:
    """Remove ``name``; returns the inode number it referenced."""
    if name in (".", ".."):
        raise FilesystemError(f"cannot remove {name!r}")
    for blkno in range(_dir_blocks(dp)):
        addr = yield from bmap.get_pointer(mount, dp, blkno)
        meta = yield from mount.metacache.bread(addr)
        hit = _find_in_block(meta.data, name)
        if hit is None:
            continue
        offset, prev_offset, ino = hit
        view = _view(meta)
        if prev_offset is not None:
            # Merge into the predecessor's record length.
            _, prev_reclen, _ = _entry_span(meta.data, prev_offset)
            _, reclen, _ = _entry_span(meta.data, offset)
            set_dirent_reclen(meta.data, prev_offset, prev_reclen + reclen)
        else:
            set_dirent_ino(meta.data, offset, 0)  # ino = 0: free slot
        # The entry found is the block's first of its name.  With one index
        # key per entry (no name held twice) it simply leaves the index;
        # otherwise the next entry of that name takes over.
        entries = view.entries
        del entries[bisect_left(entries, (offset,))]
        if len(view.index) > len(entries):
            del view.index[name]
        else:
            view.reindex()
        view.image = bytes(meta.data)
        yield from mount.meta_write(meta)
        dp.mark_dirty()
        return ino
    raise FilesystemError(f"{name!r} not found")


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
