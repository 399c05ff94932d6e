"""On-disk structures: superblock, cylinder group, dinode, directory entry.

Everything here is real bytes: the structures are packed with :mod:`struct`
into the simulated disk's sectors, and ``fsck`` re-reads and validates them.
The layout is a cleaned-up FFS:

* sector 0-15: boot area (block 0, unused)
* block 1: superblock
* cylinder group *i* occupies ``fpg`` fragments starting at ``cgbase(i)``:
  a header block (with both bitmaps inline), the inode blocks, then data.
  Group 0's header follows the boot and superblock blocks.

All block pointers are *fragment addresses* (like FFS); fragment address 0
is the boot block, which is never allocatable, so 0 doubles as the hole
marker in inode pointers.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.errors import CorruptionError, InvalidArgumentError, decode_name

SUPERBLOCK_MAGIC = 0x011954  # FS_MAGIC, as a tip of the hat
CG_MAGIC = 0x090255
DINODE_SIZE = 128
INODES_PER_BLOCK_ALIGN = 64  # ipg is rounded to a whole number of blocks
NDADDR = 12  # direct block pointers per dinode
DIRBLKSIZ = 512  # directory entries never span a 512-byte boundary
MAX_NAMELEN = 59
ROOT_INO = 2  # inode 0 unused, inode 1 historically bad-blocks
#: The superblock's place: block 1 of an 8 KB-block file system (past the
#: boot block), sector 16, one block long.  Only 8 KB blocks mount, so an
#: offline reader finds it here before it knows the block size.
SBLOCK = 16
SBLOCK_SECTORS = 16

# File type bits (stored in dinode.mode).
IFREG = 0o100000
IFDIR = 0o040000
IFLNK = 0o120000
IFMT = 0o170000


def _unpack_exact(layout: struct.Struct, data: bytes, what: str,
                  offset: int = 0) -> tuple:
    if len(data) - offset < layout.size:
        raise CorruptionError(
            f"short {what}: {len(data) - offset} < {layout.size} bytes")
    return layout.unpack_from(data, offset)


_POPCOUNT = bytes(bin(byte).count("1") for byte in range(256))
_LOWBIT = bytes((byte & -byte).bit_length() - 1 if byte else 0
                for byte in range(256))


class _MapTables:
    """Byte tables for searching a free map ``frag`` bits to the block.

    FFS's ``fragtbl``: since ``frag`` divides 8 a block never straddles a
    map byte, so what one byte says about its ``8 // frag`` blocks can be
    tabulated once and a whole map answered by ``translate`` + ``find`` /
    ``sum`` at C speed.  Bit set = free; bit *i* of a byte is fragment *i*.
    """

    def __init__(self, frag: int):
        full = (1 << frag) - 1
        #: wholly free blocks in the byte / free bits in its other blocks
        self.nbfree = bytearray(256)
        self.nffree = bytearray(256)
        #: bit offset of the byte's first wholly free block
        self.first_block = bytearray(256)
        #: ``has_run[n][byte]`` is 1 if some block of the byte holds a
        #: maximal free run of exactly ``n < frag`` bits; ``first_run`` is
        #: the bit offset of the lowest such run
        self.has_run = [bytearray(256) for _ in range(frag)]
        self.first_run = [bytearray(256) for _ in range(frag)]
        for byte in range(256):
            # Blocks and bits are walked downwards so that the lowest free
            # block / lowest run of each length is the one left recorded.
            for offset in range(8 - frag, -1, -frag):
                bits = (byte >> offset) & full
                if bits == full:
                    self.nbfree[byte] += 1
                    self.first_block[byte] = offset
                    continue
                self.nffree[byte] += _POPCOUNT[bits]
                run = 0
                for i in range(frag - 1, -1, -1):
                    if (bits >> i) & 1:
                        run += 1
                    elif run:
                        self.has_run[run][byte] = 1
                        self.first_run[run][byte] = offset + i + 1
                        run = 0
                if run:
                    self.has_run[run][byte] = 1
                    self.first_run[run][byte] = offset
        self.has_block = bytes(1 if n else 0 for n in self.nbfree)


_MAP_TABLES = {frag: _MapTables(frag) for frag in (1, 2, 4, 8)}


def _window(bitmap: bytearray, start: int, stop: int) -> tuple[bytearray, int]:
    """A copy of the map bytes covering bits ``[start, stop)`` with every
    bit outside that range cleared (= allocated, so no search can land on
    it and no count includes it), and the index of the copy's first byte."""
    first = start >> 3
    if stop <= start:
        return bytearray(), first
    window = bytearray(bitmap[first:(stop + 7) >> 3])
    window[0] &= (0xFF << (start & 7)) & 0xFF
    if stop & 7:
        window[-1] &= (1 << (stop & 7)) - 1
    return window, first


def differing_bits(found: bytes, expected: bytes) -> Iterator[int]:
    """Indices, ascending, of the bits on which two maps differ (bit *i*
    is bit ``i & 7`` of byte ``i >> 3``, as everywhere in a map)."""
    diff = (int.from_bytes(found, "little")
            ^ int.from_bytes(expected, "little"))
    while diff:
        low = diff & -diff
        yield low.bit_length() - 1
        diff ^= low


def _find_free_block(bitmap: bytearray, start: int, low: int, high: int,
                     frag: int) -> int:
    """The first wholly free block of ``[low, high)`` at or after ``start``
    (block aligned), wrapping once from ``high`` to ``low``; -1 if none."""
    tables = _MAP_TABLES[frag]
    for lo, hi in ((start, high), (low, min(start, high))):
        window, first = _window(bitmap, lo, hi)
        index = window.translate(tables.has_block).find(1)
        if index >= 0:
            return ((first + index) << 3) + tables.first_block[window[index]]
    return -1


@dataclass
class Superblock:
    """The file system's description of itself."""

    # magic, 11 ints, rotdelay float, rps, 5 64-bit counters, clean flag
    _LAYOUT = struct.Struct("<I" + "i" * 11 + "f" + "i" + "Q" * 5 + "I")

    magic: int
    bsize: int
    fsize: int
    nsect: int  # sectors per track
    ntrak: int  # heads
    ncyl: int
    cpg: int
    fpg: int  # fragments per cylinder group
    ipg: int  # inodes per cylinder group
    ncg: int
    minfree: int  # percent
    maxcontig: int
    rotdelay_ms: float
    rps: int  # rotations per second
    total_frags: int
    cs_ndir: int = 0
    cs_nbfree: int = 0
    cs_nifree: int = 0
    cs_nffree: int = 0
    clean: int = 1

    @property
    def frag(self) -> int:
        return self.bsize // self.fsize

    @property
    def frags_per_block(self) -> int:
        return self.bsize // self.fsize

    def fsb_to_sector(self, frag_addr: int) -> int:
        """Fragment address -> disk sector (fsbtodb)."""
        return frag_addr * (self.fsize // 512)

    @property
    def inode_blocks_per_group(self) -> int:
        return (self.ipg * DINODE_SIZE) // self.bsize

    def cgbase(self, cgx: int) -> int:
        """First fragment of cylinder group ``cgx``."""
        if not 0 <= cgx < self.ncg:
            raise ValueError(f"cylinder group {cgx} out of range")
        return cgx * self.fpg

    def cg_header_frag(self, cgx: int) -> int:
        """Fragment address of the group's header block."""
        base = self.cgbase(cgx)
        if cgx == 0:
            return base + 2 * self.frag  # past boot block and superblock
        return base + 0

    def cg_inode_frag(self, cgx: int) -> int:
        """Fragment address of the group's first inode block."""
        return self.cg_header_frag(cgx) + self.frag

    def cg_data_frag(self, cgx: int) -> int:
        """Fragment address of the group's first data fragment."""
        return self.cg_inode_frag(cgx) + self.inode_blocks_per_group * self.frag

    def cg_end_frag(self, cgx: int) -> int:
        """One past the group's last fragment (last group may be short)."""
        return min(self.cgbase(cgx) + self.fpg, self.total_frags)

    def cg_data_range(self, cgx: int) -> tuple[int, int]:
        """``(data_start, end)`` of the group's data blocks, in fragments
        from ``cgbase``: block aligned at both ends, because only blocks
        lying wholly inside the group exist."""
        base = self.cgbase(cgx)
        data_start = self.cg_data_frag(cgx) - base
        whole = max(0, self.cg_end_frag(cgx) - base - data_start) // self.frag
        return data_start, data_start + whole * self.frag

    def cg_of_frag(self, frag_addr: int) -> int:
        return frag_addr // self.fpg

    def cg_of_inode(self, ino: int) -> int:
        return ino // self.ipg

    def inode_location(self, ino: int) -> tuple[int, int]:
        """(fragment address of the block, byte offset in it) for ``ino``."""
        if not 0 <= ino < self.ncg * self.ipg:
            raise ValueError(f"inode {ino} out of range")
        cgx = ino // self.ipg
        index = ino % self.ipg
        per_block = self.bsize // DINODE_SIZE
        block = index // per_block
        return (
            self.cg_inode_frag(cgx) + block * self.frag,
            (index % per_block) * DINODE_SIZE,
        )

    def pack(self) -> bytes:
        data = self._LAYOUT.pack(
            self.magic, self.bsize, self.fsize, self.nsect,
            self.ntrak, self.ncyl, self.cpg, self.fpg, self.ipg, self.ncg,
            self.minfree, self.maxcontig, self.rotdelay_ms, self.rps,
            self.total_frags, self.cs_ndir, self.cs_nbfree, self.cs_nifree,
            self.cs_nffree, self.clean,
        )
        return data.ljust(self.bsize, b"\x00")

    @classmethod
    def unpack(cls, data: bytes) -> "Superblock":
        values = _unpack_exact(cls._LAYOUT, data, "superblock")
        sb = cls(*values)
        if sb.magic != SUPERBLOCK_MAGIC:
            raise CorruptionError(f"bad superblock magic {sb.magic:#x}")
        if (sb.bsize <= 0 or sb.fsize <= 0 or sb.bsize % sb.fsize
                or sb.bsize // sb.fsize not in _MAP_TABLES):
            raise CorruptionError("superblock block/fragment sizes invalid")
        return sb


@dataclass
class CylinderGroup:
    """One cylinder group: counters plus the fragment and inode bitmaps.

    Bitmaps are bytearrays, one bit per fragment / inode; bit set = free.
    """

    _LAYOUT = struct.Struct("<IIIIIIIII")

    magic: int
    cgx: int
    ndblk: int  # fragments in this group (including metadata area)
    nbfree: int  # free full blocks
    nffree: int  # free fragments not part of free full blocks
    nifree: int
    ndir: int
    frag_rotor: int
    inode_rotor: int
    frag_bitmap: bytearray = field(default_factory=bytearray)
    inode_bitmap: bytearray = field(default_factory=bytearray)

    def pack(self, sb: Superblock) -> bytes:
        frag_bytes = (sb.fpg + 7) // 8
        inode_bytes = (sb.ipg + 7) // 8
        head = self._LAYOUT.pack(
            self.magic, self.cgx, self.ndblk, self.nbfree, self.nffree,
            self.nifree, self.ndir, self.frag_rotor, self.inode_rotor,
        )
        data = head + bytes(self.frag_bitmap.ljust(frag_bytes, b"\x00"))
        data += bytes(self.inode_bitmap.ljust(inode_bytes, b"\x00"))
        if len(data) > sb.bsize:
            raise CorruptionError("cylinder group header exceeds one block")
        return data.ljust(sb.bsize, b"\x00")

    @classmethod
    def unpack(cls, data: bytes, sb: Superblock) -> "CylinderGroup":
        values = _unpack_exact(cls._LAYOUT, data, "cylinder group")
        cg = cls(*values)
        if cg.magic != CG_MAGIC:
            raise CorruptionError(f"bad cylinder group magic {cg.magic:#x}")
        head = cls._LAYOUT.size
        frag_bytes = (sb.fpg + 7) // 8
        inode_bytes = (sb.ipg + 7) // 8
        cg.frag_bitmap = bytearray(data[head:head + frag_bytes])
        cg.inode_bitmap = bytearray(
            data[head + frag_bytes:head + frag_bytes + inode_bytes]
        )
        return cg

    # -- bitmap helpers (bit set = free) -------------------------------------
    @staticmethod
    def _get(bitmap: bytearray, i: int) -> bool:
        return bool(bitmap[i >> 3] & (1 << (i & 7)))

    @staticmethod
    def _set(bitmap: bytearray, i: int, free: bool) -> None:
        if free:
            bitmap[i >> 3] |= 1 << (i & 7)
        else:
            bitmap[i >> 3] &= ~(1 << (i & 7)) & 0xFF

    @staticmethod
    def fill_free(bitmap: bytearray, start: int, end: int) -> None:
        """Mark bits ``[start, end)`` free: whole bytes by slice assignment
        (mkfs frees ~8k bits per group), the ragged edges bit by bit."""
        lo = min(-(-start // 8), end // 8)
        hi = max(lo, end // 8)
        bitmap[lo:hi] = b"\xff" * (hi - lo)
        for i in (*range(start, min(lo * 8, end)), *range(max(hi * 8, start), end)):
            bitmap[i >> 3] |= 1 << (i & 7)

    def frag_is_free(self, rel_frag: int) -> bool:
        return self._get(self.frag_bitmap, rel_frag)

    def set_frag(self, rel_frag: int, free: bool) -> None:
        """One map bit, unchecked: how ``tests/ufs/test_fsck*.py`` corrupt
        a map (the allocator uses :meth:`mark_frags`)."""
        self._set(self.frag_bitmap, rel_frag, free)

    def inode_is_free(self, rel_ino: int) -> bool:
        return self._get(self.inode_bitmap, rel_ino)

    def set_inode(self, rel_ino: int, free: bool) -> None:
        self._set(self.inode_bitmap, rel_ino, free)

    # -- map kernels: whole-map questions answered through _MapTables ---------
    # ``[data_start, end)`` is ``Superblock.cg_data_range``: whole blocks.
    def run_is_free(self, rel_frag: int, n: int) -> bool:
        """True if the ``n`` fragments from ``rel_frag``, all inside one
        block (hence one map byte), are free."""
        run = (1 << n) - 1
        return (self.frag_bitmap[rel_frag >> 3] >> (rel_frag & 7)) & run == run

    def block_free_count(self, rel_block_frag: int, frag: int) -> int:
        """Free fragments in the (aligned) block at ``rel_block_frag``."""
        byte = self.frag_bitmap[rel_block_frag >> 3]
        return _POPCOUNT[(byte >> (rel_block_frag & 7)) & ((1 << frag) - 1)]

    def free_counts(self, data_start: int, end: int, frag: int
                    ) -> tuple[int, int]:
        """``(nbfree, nffree)`` as the map has them: wholly free blocks, and
        free fragments inside partly-used blocks."""
        tables = _MAP_TABLES[frag]
        window, _ = _window(self.frag_bitmap, data_start, end)
        return (sum(window.translate(tables.nbfree)),
                sum(window.translate(tables.nffree)))

    def inodes_free(self, ipg: int) -> int:
        """Free inodes as the inode map has them."""
        window, _ = _window(self.inode_bitmap, 0, ipg)
        return sum(window.translate(_POPCOUNT))

    def find_free_block(self, start: int, data_start: int, end: int,
                        frag: int) -> int:
        """The first wholly free block at or after ``start``, wrapping once
        from ``end`` to ``data_start``; -1 if the group has none."""
        return _find_free_block(self.frag_bitmap, start, data_start, end, frag)

    def find_free_inode(self, start: int, ipg: int) -> int:
        """The first free inode at or after ``start``, wrapping once; -1 if
        the group has none."""
        return _find_free_block(self.inode_bitmap, start, 0, ipg, 1)

    def find_frag_run(self, nfrags: int, data_start: int, end: int,
                      frag: int) -> int:
        """Best fit for ``nfrags < frag`` fragments in a partly-used block:
        the lowest free run whose maximal length is the smallest length
        >= ``nfrags`` any partly-used block offers; -1 if none does.
        Wholly free blocks are never broken here."""
        tables = _MAP_TABLES[frag]
        window, first = _window(self.frag_bitmap, data_start, end)
        for want in range(nfrags, frag):
            index = window.translate(tables.has_run[want]).find(1)
            if index >= 0:
                return (((first + index) << 3)
                        + tables.first_run[want][window[index]])
        return -1

    def mark_frags(self, rel_frag: int, n: int, free: bool, base: int) -> None:
        """Flip fragments ``[rel_frag, rel_frag + n)`` to free / allocated.
        Every one must be in the opposite state: the first that is not is
        named (as ``base`` + its index) in the error."""
        bitmap = self.frag_bitmap
        stop = rel_frag + n
        while rel_frag < stop:
            index, low = rel_frag >> 3, rel_frag & 7
            high = min(8, low + stop - rel_frag)
            span = ((1 << high) - 1) & ~((1 << low) - 1)
            wrong = (bitmap[index] if free else ~bitmap[index]) & span
            if wrong:
                what = "free" if free else "allocation"
                raise RuntimeError(
                    f"double {what} of fragment "
                    f"{base + (index << 3) + _LOWBIT[wrong]}")
            bitmap[index] ^= span
            rel_frag += high - low


@dataclass
class Dinode:
    """The on-disk inode: 128 bytes."""

    _LAYOUT = struct.Struct("<HHIQIII" + "I" * NDADDR + "IIII")

    mode: int = 0
    nlink: int = 0
    uid: int = 0
    size: int = 0
    atime: int = 0
    mtime: int = 0
    ctime: int = 0
    direct: tuple[int, ...] = (0,) * NDADDR
    indirect: int = 0
    dindirect: int = 0
    blocks: int = 0  # fragments held, for du/stat
    gen: int = 0

    def __post_init__(self) -> None:
        if len(self.direct) != NDADDR:
            raise ValueError(f"direct pointer list must have {NDADDR} entries")
        self.direct = tuple(self.direct)

    @property
    def is_allocated(self) -> bool:
        return self.mode != 0

    @property
    def is_dir(self) -> bool:
        return (self.mode & IFMT) == IFDIR

    @property
    def is_reg(self) -> bool:
        return (self.mode & IFMT) == IFREG

    def pack(self) -> bytes:
        data = self._LAYOUT.pack(
            self.mode, self.nlink, self.uid, self.size,
            self.atime, self.mtime, self.ctime, *self.direct,
            self.indirect, self.dindirect, self.blocks, self.gen,
        )
        assert len(data) <= DINODE_SIZE
        return data.ljust(DINODE_SIZE, b"\x00")

    @classmethod
    def unpack(cls, data: bytes, offset: int = 0) -> "Dinode":
        values = _unpack_exact(cls._LAYOUT, data, "dinode", offset)
        mode, nlink, uid, size, atime, mtime, ctime = values[:7]
        direct = values[7:7 + NDADDR]
        indirect, dindirect, blocks, gen = values[7 + NDADDR:]
        return cls(mode, nlink, uid, size, atime, mtime, ctime,
                   tuple(direct), indirect, dindirect, blocks, gen)


# -- block pointers ----------------------------------------------------------
# A pointer is a little-endian u32 fragment address, 0 for a hole; an
# indirect block is ``bsize // 4`` of them.
_PTR = struct.Struct("<I")


def nindir(bsize: int) -> int:
    """Pointers per indirect block."""
    return bsize // _PTR.size


def max_lbn(bsize: int) -> int:
    """One past the largest addressable logical block."""
    n = nindir(bsize)
    return NDADDR + n + n * n


def get_ptr(block: "bytes | bytearray", index: int) -> int:
    return _PTR.unpack_from(block, index * _PTR.size)[0]


def set_ptr(block: bytearray, index: int, value: int) -> None:
    _PTR.pack_into(block, index * _PTR.size, value)


def iter_ptrs(block: "bytes | bytearray") -> list[int]:
    """Every pointer of a pointer block, holes included."""
    return [ptr for (ptr,) in _PTR.iter_unpack(block)]


# A fast symlink keeps its target in the dinode's pointer words ("the space
# normally used for block pointers is filled with the symlink data"):
# direct[0..NDADDR), indirect, dindirect, each a little-endian u32.
_FAST_LINK = struct.Struct("<" + "I" * (NDADDR + 2))
#: The longest target a fast symlink holds.
FAST_SYMLINK_MAX = _FAST_LINK.size - 1


def is_fast_symlink(ip: "Any") -> bool:
    """Whether ``ip`` (anything with ``mode`` and ``size``) is a symlink
    whose pointer words are target bytes; a slow one's are real claims."""
    return ip.mode & IFMT == IFLNK and ip.size <= FAST_SYMLINK_MAX


def pack_fast_symlink(target: bytes) -> tuple[list[int], int, int]:
    """The pointer fields ``(direct, indirect, dindirect)`` holding
    ``target`` (at most :data:`FAST_SYMLINK_MAX` bytes)."""
    *direct, indirect, dindirect = _FAST_LINK.unpack(
        target.ljust(_FAST_LINK.size, b"\x00"))
    return direct, indirect, dindirect


def unpack_fast_symlink(ip: "Any") -> bytes:
    """The target of a fast symlink ``ip`` — a :class:`Dinode` or anything
    else carrying the three pointer fields and ``size``."""
    return _FAST_LINK.pack(*ip.direct, ip.indirect, ip.dindirect)[:ip.size]


def lbn_path(lbn: int, bsize: int) -> tuple[int, tuple[int, ...]]:
    """``(level, indices)`` of logical block ``lbn``'s pointer: level 0 is
    ``direct[indices[0]]``; level 1 starts at the inode's ``indirect``
    block and level 2 at ``dindirect``, with one index per pointer block
    on the way down."""
    if lbn < 0:
        raise InvalidArgumentError(f"negative lbn {lbn}")
    if lbn < NDADDR:
        return 0, (lbn,)
    n = bsize // _PTR.size
    rel = lbn - NDADDR
    if rel < n:
        return 1, (rel,)
    rel -= n
    if rel < n * n:
        return 2, (rel // n, rel % n)
    raise InvalidArgumentError(f"lbn {lbn} beyond maximum file size")


def resolve_lbn(ip: "Any", lbn: int, bsize: int,
                fetch: "Callable[[int], bytes | bytearray]") -> int:
    """The block pointer for ``lbn`` (0 = hole) of ``ip`` — a
    :class:`Dinode` or anything else carrying its three pointer fields —
    with no simulated I/O: ``fetch(addr)`` hands over the pointer block at
    ``addr``, which is all the offline readers differ in."""
    level, indices = lbn_path(lbn, bsize)
    if level == 0:
        return ip.direct[indices[0]]
    addr = ip.indirect if level == 1 else ip.dindirect
    for index in indices:
        if addr == 0:
            return 0
        addr = get_ptr(fetch(addr), index)
    return addr


def iter_dinodes(block: bytes) -> "list[tuple[int, Dinode]]":
    """(slot, dinode) for every allocated slot of an inode block.

    A free slot (mode 0 — the leading little-endian u16) is told from its
    two mode bytes, and an all-zero block by one compare, so a scan of a
    mostly-empty inode area unpacks only what is there.
    """
    if block == bytes(len(block)):
        return []
    return [(offset // DINODE_SIZE, Dinode.unpack(block, offset))
            for offset in range(0, len(block), DINODE_SIZE)
            if block[offset] or block[offset + 1]]


@dataclass(frozen=True)
class Dirent:
    """One directory entry."""

    ino: int
    name: str

    _HEAD = struct.Struct("<IHH")  # ino, reclen, namelen

    def __post_init__(self) -> None:
        if not self.name or len(self.name) > MAX_NAMELEN:
            raise ValueError(f"bad name length for {self.name!r}")
        if "/" in self.name or "\x00" in self.name:
            raise ValueError(f"illegal character in name {self.name!r}")


def dirent_size(name: str) -> int:
    """Bytes an entry named ``name`` needs: header + name, rounded to 4."""
    return (Dirent._HEAD.size + len(name.encode()) + 3) & ~3


def pack_dirent(ino: int, name: str, reclen: int) -> bytes:
    """Pack one directory entry into exactly ``reclen`` bytes."""
    encoded = name.encode()
    head = Dirent._HEAD.pack(ino, reclen, len(encoded))
    body = head + encoded
    if len(body) > reclen:
        raise ValueError("reclen too small for entry")
    return body.ljust(reclen, b"\x00")


def put_dirent(block: bytearray, offset: int, ino: int, name: str,
               reclen: int) -> None:
    """Write an entry's header and name at ``offset``; the rest of its
    ``reclen`` bytes keep whatever they held."""
    encoded = name.encode()
    head = Dirent._HEAD
    head.pack_into(block, offset, ino, reclen, len(encoded))
    block[offset + head.size:offset + head.size + len(encoded)] = encoded


def set_dirent_ino(block: bytearray, offset: int, ino: int) -> None:
    """Repoint the entry at ``offset`` (``ino`` 0 frees the slot)."""
    _, reclen, namelen = Dirent._HEAD.unpack_from(block, offset)
    Dirent._HEAD.pack_into(block, offset, ino, reclen, namelen)


def set_dirent_reclen(block: bytearray, offset: int, reclen: int) -> None:
    """Change how much of its chunk the entry at ``offset`` spans."""
    ino, _, namelen = Dirent._HEAD.unpack_from(block, offset)
    Dirent._HEAD.pack_into(block, offset, ino, reclen, namelen)


def empty_dirblock(bsize: int) -> bytes:
    """A directory block of entirely free slots (one per DIRBLKSIZ chunk)."""
    slot = Dirent._HEAD.pack(0, DIRBLKSIZ, 0).ljust(DIRBLKSIZ, b"\x00")
    return slot * (bsize // DIRBLKSIZ)


def dir_records(block: bytes) -> "list[tuple[int, int, int, str]]":
    """Every record of a directory block in offset order, as (offset, ino,
    reclen, name): the one decoder of the format.  Records tile each
    DIRBLKSIZ chunk; a free one (ino 0) still spans its reclen, and its
    name is not decoded ("")."""
    head_size = Dirent._HEAD.size
    unpack_head = Dirent._HEAD.unpack_from
    records = []
    for chunk_start in range(0, len(block), DIRBLKSIZ):
        offset = chunk_start
        chunk_end = min(chunk_start + DIRBLKSIZ, len(block))
        while offset < chunk_end:
            if offset + head_size > len(block):
                raise CorruptionError(
                    f"truncated directory record at offset {offset}")
            ino, reclen, namelen = unpack_head(block, offset)
            if reclen < head_size or offset + reclen > chunk_end or reclen % 4:
                raise CorruptionError(
                    f"bad directory reclen {reclen} at offset {offset}"
                )
            name = ""
            if ino:
                if namelen > reclen - head_size:
                    raise CorruptionError(
                        f"directory name length {namelen} overruns its "
                        f"{reclen}-byte record at offset {offset}")
                start = offset + head_size
                name = decode_name(block[start:start + namelen],
                                   f"directory name at offset {offset}")
            records.append((offset, ino, reclen, name))
            offset += reclen
    return records


def iter_dirents(block: bytes) -> "list[tuple[int, int, str]]":
    """(offset, ino, name) of every live record (:func:`dir_records`)."""
    return [(o, ino, name) for o, ino, _, name in dir_records(block) if ino]
