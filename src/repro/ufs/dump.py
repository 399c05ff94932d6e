"""dump and restore: the backup utilities the on-disk format contract
protects.

"A change in on-disk file system format would require changes to many
system utilities, such as dump, restore, and fsck."  Those utilities exist
here so the contract is testable: ``ufsdump`` walks the raw disk image
offline (sharing only the format, ``ondisk.py``, with the mounted file
system), and ``restore``
replays an archive through the normal mount API.  A dump of a clustered
file system restores onto an unclustered one and vice versa, because the
format is one and the same.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Generator

from repro.errors import CorruptionError, decode_name
from repro.ufs.ondisk import (
    DINODE_SIZE, IFDIR, IFLNK, IFMT, IFREG, ROOT_INO, SBLOCK, SBLOCK_SECTORS,
    Dinode, Superblock, is_fast_symlink, iter_dirents, resolve_lbn,
    unpack_fast_symlink,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.disk.store import DiskStore
    from repro.kernel.syscalls import Proc


@dataclass
class DumpEntry:
    """One archived file or directory."""

    path: str
    kind: str  # "file" | "dir" | "symlink"
    content: bytes = b""

    def __post_init__(self) -> None:
        if self.kind not in ("file", "dir", "symlink"):
            raise ValueError(f"bad entry kind {self.kind!r}")


@dataclass
class DumpArchive:
    """A full-filesystem archive, in path order."""

    entries: list[DumpEntry] = field(default_factory=list)

    def paths(self) -> list[str]:
        return [e.path for e in self.entries]

    def find(self, path: str) -> DumpEntry:
        for entry in self.entries:
            if entry.path == path:
                return entry
        raise KeyError(path)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DumpArchive):
            return NotImplemented
        mine = sorted((e.path, e.kind, e.content) for e in self.entries)
        theirs = sorted((e.path, e.kind, e.content) for e in other.entries)
        return mine == theirs


class _OfflineReader:
    """Reads files straight out of the disk image, fsck-style."""

    def __init__(self, store: "DiskStore"):
        self.store = store
        self.sb = Superblock.unpack(store.read(SBLOCK, SBLOCK_SECTORS))
        self.frag_sectors = self.sb.fsize // 512

    def _read_frags(self, frag_addr: int, nbytes: int) -> bytes:
        nsectors = -(-nbytes // 512)
        return self.store.read(frag_addr * self.frag_sectors, nsectors)[:nbytes]

    def read_dinode(self, ino: int) -> Dinode:
        frag_addr, off = self.sb.inode_location(ino)
        block = self._read_frags(frag_addr, self.sb.bsize)
        return Dinode.unpack(block[off:off + DINODE_SIZE])

    def _pointer(self, din: Dinode, lbn: int) -> int:
        return resolve_lbn(din, lbn, self.sb.bsize,
                           lambda addr: self._read_frags(addr, self.sb.bsize))

    def read_file(self, din: Dinode) -> bytes:
        sb = self.sb
        parts: list[bytes] = []
        remaining = din.size
        lbn = 0
        while remaining > 0:
            take = min(sb.bsize, remaining)
            addr = self._pointer(din, lbn)
            if addr == 0:
                parts.append(bytes(take))  # hole
            else:
                parts.append(self._read_frags(addr, take))
            remaining -= take
            lbn += 1
        return b"".join(parts)

    def list_dir(self, din: Dinode) -> list[tuple[str, int]]:
        out = []
        nblocks = din.size // self.sb.bsize
        for lbn in range(nblocks):
            addr = self._pointer(din, lbn)
            if addr == 0:
                raise CorruptionError("hole in directory")
            block = self._read_frags(addr, self.sb.bsize)
            out.extend((name, ino) for _, ino, name in iter_dirents(block)
                       if name not in (".", ".."))
        return out


def ufsdump(store: "DiskStore") -> DumpArchive:
    """Archive every file and directory reachable from the root."""
    reader = _OfflineReader(store)
    archive = DumpArchive()
    stack: list[tuple[str, int]] = [("", ROOT_INO)]
    while stack:
        prefix, ino = stack.pop()
        din = reader.read_dinode(ino)
        kind = din.mode & IFMT
        if kind == IFDIR:
            if prefix:  # the root itself is implicit
                archive.entries.append(DumpEntry(prefix, "dir"))
            for name, child in sorted(reader.list_dir(din), reverse=True):
                stack.append((f"{prefix}/{name}", child))
        elif kind == IFREG:
            archive.entries.append(
                DumpEntry(prefix, "file", reader.read_file(din))
            )
        elif kind == IFLNK:
            if is_fast_symlink(din):
                target = unpack_fast_symlink(din)
            else:
                target = reader._read_frags(din.direct[0], din.size)
            archive.entries.append(DumpEntry(prefix, "symlink", target))
        else:
            raise CorruptionError(f"inode {ino}: unknown type {din.mode:#o}")
    archive.entries.sort(key=lambda e: e.path)
    return archive


def restore(proc: "Proc", archive: DumpArchive) -> Generator[Any, Any, int]:
    """Replay an archive through the syscall layer; returns entries restored.

    Directories are created parents-first (path order guarantees it).
    """
    count = 0
    for entry in sorted(archive.entries, key=lambda e: e.path):
        if entry.kind == "dir":
            yield from proc.mkdir(entry.path)
        elif entry.kind == "symlink":
            target = decode_name(entry.content,
                                 f"dumped link target of {entry.path}")
            yield from proc.symlink(target, entry.path)
        else:
            fd = yield from proc.creat(entry.path)
            if entry.content:
                yield from proc.write(fd, entry.content)
            yield from proc.fsync(fd)
            yield from proc.close(fd)
        count += 1
    return count
