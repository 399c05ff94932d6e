"""Directory operations.

Directories are files of variable-length entries that never cross a
DIRBLKSIZ (512-byte) boundary.  Deletion merges an entry's record length
into its predecessor (classic FFS compaction); insertion claims the first
sufficient free span.  Directory blocks move through the metadata buffer
cache, and directory *updates* are written synchronously — the consistency
discipline whose cost motivates the paper's B_ORDER proposal.  A block's
buffer keeps its decoded records (:class:`DirView`), so a block is decoded
once per content rather than once per lookup, and create and unlink find
their slot in the records, not the bytes; the simulated scan is still
charged entry by entry.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from repro.errors import FileExistsError_, FilesystemError
from repro.ufs import bmap
from repro.ufs.ondisk import (
    DIRBLKSIZ, Dirent, dir_records, dirent_size, empty_dirblock, put_dirent,
    set_dirent_ino, set_dirent_reclen,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.ufs.inode import Inode
    from repro.ufs.metacache import MetaBuf
    from repro.ufs.mount import UfsMount


def _dir_blocks(ip: "Inode") -> int:
    bsize = ip.mount.sb.bsize
    if ip.size % bsize:
        raise FilesystemError(f"directory {ip.ino} size not block aligned")
    return ip.size // bsize


class DirView:
    """A directory block decoded once per content: every record in offset
    order as :func:`dir_records` lists them (free slots included), the
    number of live ones, and a first-wins ``name -> ino`` index (what a
    scan from the top finds first).  It describes ``image`` and is trusted
    only while the buffer's bytes still equal it."""

    __slots__ = ("image", "records", "live", "index")

    def __init__(self, image: bytes):
        self.image = image
        self.records = dir_records(image)
        self.live = sum(1 for record in self.records if record[1])
        self.reindex()

    def reindex(self) -> None:
        self.index = {name: ino
                      for _, ino, _, name in reversed(self.records) if ino}


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
        yield from _charge_scan(mount, max(1, view.live))
        if ino is not None:
            return ino
    return None


def entries(mount: "UfsMount", dp: "Inode") -> Generator[Any, Any, list[tuple[str, int]]]:
    """All (name, ino) pairs, including '.' and '..'."""
    found: list[tuple[str, int]] = []
    for blkno in range(_dir_blocks(dp)):
        addr = yield from bmap.get_pointer(mount, dp, blkno)
        meta = yield from mount.metacache.bread(addr)
        view = _view(meta)
        found.extend((name, ino) for _, ino, _, name in view.records if ino)
        yield from _charge_scan(mount, max(1, view.live))
    return found


def is_empty(mount: "UfsMount", dp: "Inode") -> Generator[Any, Any, bool]:
    """True if the directory holds only '.' and '..'."""
    listed = yield from entries(mount, dp)
    return all(name in (".", "..") for name, _ in listed)


def enter(mount: "UfsMount", dp: "Inode", name: str, ino: int
          ) -> Generator[Any, Any, None]:
    """Add ``name -> ino``; the directory block is written synchronously."""
    Dirent(ino, name)  # a legal name, or ValueError
    needed = dirent_size(name)
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
    """Put the entry in the first record of ``meta``'s block with room for
    it — a free slot at least ``needed`` long, or a live entry with that
    much spare past its own size, which it then shrinks to — and patch the
    view's records as the bytes are patched, without a re-decode."""
    view = _view(meta)
    records = view.records
    for i, (offset, e_ino, reclen, e_name) in enumerate(records):
        if e_ino == 0:
            if reclen >= needed:
                records[i] = (offset, ino, reclen, name)
                break
        elif reclen > needed:  # else no spare can be that large
            used = dirent_size(e_name)
            if reclen - used >= needed:
                set_dirent_reclen(meta.data, offset, used)
                records[i] = (offset, e_ino, used, e_name)
                offset, reclen = offset + used, reclen - used
                records.insert(i + 1, (offset, ino, reclen, name))
                break
    else:
        return False
    put_dirent(meta.data, offset, ino, name, reclen)
    view.live += 1
    if name in view.index:
        view.reindex()  # a duplicate (corrupt block): the first must win
    else:
        view.index[name] = ino
    view.image = bytes(meta.data)
    return True


def remove(mount: "UfsMount", dp: "Inode", name: str) -> Generator[Any, Any, int]:
    """Remove ``name``; returns the inode number it referenced."""
    if name in (".", ".."):
        raise FilesystemError(f"cannot remove {name!r}")
    for blkno in range(_dir_blocks(dp)):
        addr = yield from bmap.get_pointer(mount, dp, blkno)
        meta = yield from mount.metacache.bread(addr)
        view = _view(meta)
        if name not in view.index:
            continue
        records = view.records
        i = next(i for i, (_, e_ino, _, e_name) in enumerate(records)
                 if e_ino and e_name == name)
        offset, ino, reclen, _ = records[i]
        if offset % DIRBLKSIZ:
            # Merge into the predecessor's record length: the record before
            # it in its chunk, free or live.
            prev_offset, prev_ino, prev_reclen, prev_name = records[i - 1]
            set_dirent_reclen(meta.data, prev_offset, prev_reclen + reclen)
            records[i - 1] = (prev_offset, prev_ino, prev_reclen + reclen,
                              prev_name)
            del records[i]
        else:
            set_dirent_ino(meta.data, offset, 0)  # ino = 0: free slot
            records[i] = (offset, 0, reclen, "")
        # The entry found is the block's first of its name.  With one index
        # key per entry (no name held twice) it simply leaves the index;
        # otherwise the next entry of that name takes over.
        view.live -= 1
        if len(view.index) > view.live:
            del view.index[name]
        else:
            view.reindex()
        view.image = bytes(meta.data)
        yield from mount.meta_write(meta)
        dp.mark_dirty()
        return ino
    raise FilesystemError(f"{name!r} not found")
