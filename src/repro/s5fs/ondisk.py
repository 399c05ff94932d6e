"""S5FS on-disk structures.

Layout (in 1 KB blocks): block 0 boot, block 1 superblock, blocks
``2 .. 2+isize`` the inode list, data blocks after that.  The free list is
the classic chain: the superblock caches up to ``NICFREE`` free block
numbers; slot 0 points at a block holding the next batch.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.errors import CorruptionError, InvalidArgumentError, decode_name

S5_MAGIC = 0xFD187E20
NICFREE = 50  # free block numbers cached in the superblock
S5_DINODE_SIZE = 64
S5_NADDR = 12  # 10 direct, 1 indirect, 1 double indirect
S5_NDIRECT = 10
S5_DIRSIZ = 14  # max file name length
S5_DIRENT_SIZE = 16  # 2-byte inode + 14-byte name
S5_ROOT_INO = 2
S5_BSIZE = 1024  # the block size s5_mkfs builds
S5_NBPI = 4096  # data bytes per inode (sizes the inode list)


@dataclass
class S5Superblock:
    """The System V superblock (reduced)."""

    _FMT = "<IiiiiI" + "I" * NICFREE

    magic: int
    bsize: int
    isize: int  # inode list length in blocks
    fsize: int  # total blocks
    tfree: int  # total free blocks (bookkeeping)
    nfree: int  # valid entries in free[]
    free: list[int] = field(default_factory=lambda: [0] * NICFREE)

    def pack(self) -> bytes:
        if len(self.free) != NICFREE:
            raise ValueError("free[] must have NICFREE entries")
        data = struct.pack(self._FMT, self.magic, self.bsize, self.isize,
                           self.fsize, self.tfree, self.nfree, *self.free)
        return data.ljust(self.bsize, b"\x00")

    @classmethod
    def unpack(cls, data: bytes) -> "S5Superblock":
        size = struct.calcsize(cls._FMT)
        if len(data) < size:
            raise CorruptionError("short S5 superblock")
        values = struct.unpack(cls._FMT, data[:size])
        sb = cls(values[0], values[1], values[2], values[3], values[4],
                 values[5], list(values[6:]))
        if sb.magic != S5_MAGIC:
            raise CorruptionError(f"bad S5 magic {sb.magic:#x}")
        return sb

    @property
    def inodes(self) -> int:
        return (self.isize * self.bsize) // S5_DINODE_SIZE

    @property
    def data_start(self) -> int:
        return 2 + self.isize

    def inode_location(self, ino: int) -> tuple[int, int]:
        """(block, byte offset) of inode ``ino``."""
        if not 0 <= ino < self.inodes:
            raise ValueError(f"inode {ino} out of range")
        per_block = self.bsize // S5_DINODE_SIZE
        return 2 + ino // per_block, (ino % per_block) * S5_DINODE_SIZE


@dataclass
class S5Dinode:
    """The 64-byte System V dinode (reduced)."""

    _FMT = "<HHI" + "I" * S5_NADDR + "Q"

    mode: int = 0
    nlink: int = 0
    uid_gid: int = 0
    addrs: tuple[int, ...] = (0,) * S5_NADDR
    size: int = 0

    def __post_init__(self) -> None:
        if len(self.addrs) != S5_NADDR:
            raise ValueError(f"addrs must have {S5_NADDR} entries")
        self.addrs = tuple(self.addrs)

    @property
    def is_allocated(self) -> bool:
        return self.mode != 0

    def pack(self) -> bytes:
        data = struct.pack(self._FMT, self.mode, self.nlink, self.uid_gid,
                           *self.addrs, self.size)
        assert len(data) <= S5_DINODE_SIZE
        return data.ljust(S5_DINODE_SIZE, b"\x00")

    @classmethod
    def unpack(cls, data: bytes) -> "S5Dinode":
        size = struct.calcsize(cls._FMT)
        if len(data) < size:
            raise CorruptionError("short S5 dinode")
        values = struct.unpack(cls._FMT, data[:size])
        return cls(values[0], values[1], values[2],
                   tuple(values[3:3 + S5_NADDR]), values[3 + S5_NADDR])


# -- block pointers ----------------------------------------------------------
# A pointer is a little-endian u32 block number, 0 for a hole; a pointer
# block is ``bsize // 4`` of them.
_PTR = struct.Struct("<I")


def get_ptr(block: "bytes | bytearray", index: int) -> int:
    return _PTR.unpack_from(block, index * _PTR.size)[0]


def set_ptr(block: bytearray, index: int, value: int) -> None:
    _PTR.pack_into(block, index * _PTR.size, value)


def iter_ptrs(block: "bytes | bytearray") -> list[int]:
    """Every pointer of a pointer block, holes included."""
    return [ptr for (ptr,) in _PTR.iter_unpack(block)]


def s5_lbn_path(lbn: int, bsize: int) -> tuple[int, tuple[int, ...]]:
    """``(slot, indices)`` of logical block ``lbn``'s pointer: ``addrs[slot]``
    is the data block itself (no indices), the indirect block (one index)
    or the double-indirect block (two: one per pointer block going down)."""
    if lbn < 0:
        raise InvalidArgumentError("negative lbn")
    if lbn < S5_NDIRECT:
        return lbn, ()
    nindir = bsize // _PTR.size
    rel = lbn - S5_NDIRECT
    if rel < nindir:
        return S5_NDIRECT, (rel,)
    rel -= nindir
    if rel < nindir * nindir:
        return S5_NDIRECT + 1, (rel // nindir, rel % nindir)
    raise InvalidArgumentError("file too large for S5FS")


# -- directory entries: a u16 inode number (0 = free slot) + 14 name bytes ----
_DIRENT_INO = struct.Struct("<H")


def s5_dirent_ino(block: "bytes | bytearray", offset: int) -> int:
    return _DIRENT_INO.unpack_from(block, offset)[0]


def set_s5_dirent_ino(block: bytearray, offset: int, ino: int) -> None:
    _DIRENT_INO.pack_into(block, offset, ino)


def check_s5_name(name: str) -> bytes:
    """``name`` encoded for the flat root: 1-14 bytes, no ``/`` (EINVAL)."""
    encoded = name.encode()
    if not 0 < len(encoded) <= S5_DIRSIZ or "/" in name:
        raise InvalidArgumentError(f"bad S5FS name {name!r}")
    return encoded


def pack_s5_dirent(ino: int, name: str) -> bytes:
    return _DIRENT_INO.pack(ino) + check_s5_name(name).ljust(S5_DIRSIZ, b"\x00")


def iter_s5_dirents(block: bytes) -> list[tuple[int, int, str]]:
    """(offset, ino, name) for each live entry; ino 0 = free slot."""
    entries = []
    for offset in range(0, len(block) - S5_DIRENT_SIZE + 1, S5_DIRENT_SIZE):
        ino = s5_dirent_ino(block, offset)
        if ino == 0:
            continue
        raw = block[offset + _DIRENT_INO.size:offset + S5_DIRENT_SIZE]
        entries.append((offset, ino, decode_name(
            raw.rstrip(b"\x00"), f"S5 directory name at offset {offset}")))
    return entries


def pack_free_chain_block(bsize: int, nfree: int, free: list[int]) -> bytes:
    """A block of the free-list chain: count + NICFREE block numbers."""
    data = struct.pack("<I" + "I" * NICFREE, nfree,
                       *(free + [0] * (NICFREE - len(free))))
    return data.ljust(bsize, b"\x00")


def unpack_free_chain_block(data: bytes) -> tuple[int, list[int]]:
    values = struct.unpack_from("<I" + "I" * NICFREE, data)
    return values[0], list(values[1:])
