"""Directory operations.

Directories are files of variable-length entries that never cross a
DIRBLKSIZ (512-byte) boundary.  Deletion merges an entry's record length
into its predecessor (classic FFS compaction); insertion claims the first
sufficient free span.  Directory blocks move through the metadata buffer
cache, and directory *updates* are written synchronously — the consistency
discipline whose cost motivates the paper's B_ORDER proposal.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from repro.errors import FileExistsError_, FilesystemError
from repro.ufs import bmap
from repro.ufs.ondisk import (
    DIRBLKSIZ, Dirent, empty_dirblock, iter_dirents, set_dirent_ino,
    set_dirent_reclen,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.ufs.inode import Inode
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
        entries = iter_dirents(bytes(meta.data))
        yield from _charge_scan(mount, max(1, len(entries)))
        for _, ino, entry_name in entries:
            if entry_name == name:
                return ino
    return None


def entries(mount: "UfsMount", dp: "Inode") -> Generator[Any, Any, list[tuple[str, int]]]:
    """All (name, ino) pairs, including '.' and '..'."""
    found: list[tuple[str, int]] = []
    for blkno in range(_dir_blocks(dp)):
        addr = yield from bmap.get_pointer(mount, dp, blkno)
        meta = yield from mount.metacache.bread(addr)
        listed = iter_dirents(bytes(meta.data))
        yield from _charge_scan(mount, max(1, len(listed)))
        found.extend((name, ino) for _, ino, name in listed)
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
        if _try_insert(meta.data, name, ino, needed):
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
    if not _try_insert(meta.data, name, ino, needed):
        raise FilesystemError("fresh directory block cannot hold entry")
    yield from mount.meta_write(meta)
    yield from mount.write_inode(dp, sync=True)


def _try_insert(block: bytearray, name: str, ino: int, needed: int) -> bool:
    """Claim space for the entry in any DIRBLKSIZ chunk of ``block``."""
    for chunk in range(0, len(block), DIRBLKSIZ):
        offset = chunk
        while offset < chunk + DIRBLKSIZ:
            e_ino, reclen, namelen = _entry_span(block, offset)
            if e_ino == 0:
                # A fully free slot.
                if reclen >= needed:
                    _write_entry(block, offset, ino, name, reclen)
                    return True
            else:
                used = (_HEAD_SIZE + namelen + 3) & ~3
                spare = reclen - used
                if spare >= needed:
                    # Shrink this entry; the new one takes the tail space.
                    set_dirent_reclen(block, offset, used)
                    _write_entry(block, offset + used, ino, name, spare)
                    return True
            offset += reclen
    return False


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
        if prev_offset is not None:
            # Merge into the predecessor's record length.
            _, prev_reclen, _ = _entry_span(meta.data, prev_offset)
            _, reclen, _ = _entry_span(meta.data, offset)
            set_dirent_reclen(meta.data, prev_offset, prev_reclen + reclen)
        else:
            set_dirent_ino(meta.data, offset, 0)  # ino = 0: free slot
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
