"""bmap: logical block -> physical fragment translation.

The paper's change: "bmap used to take a logical block number and return a
physical block number.  We modified it to return a length as well...  The
length returned is at most maxcontig blocks long and is used as the
effective cluster size by the caller."

``bmap_read`` implements exactly that.  ``bmap_alloc`` is the write-side
translation-with-allocation, including indirect and double-indirect blocks
and fragment handling for small-file tails.  A hole translates to address 0
(fragment 0 is the boot block and never allocatable).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from repro.errors import InvalidArgumentError
from repro.ufs.ondisk import (
    NDADDR, get_ptr, is_fast_symlink, iter_ptrs, lbn_path, set_ptr,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.ufs.inode import Inode
    from repro.ufs.mount import UfsMount

HOLE = 0


def _charge(mount: "UfsMount", indirect: bool) -> Generator[Any, Any, None]:
    costs = mount.cpu.costs
    cost = costs.bmap + (costs.bmap_indirect if indirect else 0.0)
    yield from mount.cpu.work("bmap", cost)


def _read_ptr(mount: "UfsMount", addr_block: int, index: int
              ) -> Generator[Any, Any, int]:
    meta = yield from mount.metacache.bread(addr_block)
    return get_ptr(meta.data, index)


def _write_ptr(mount: "UfsMount", addr_block: int, index: int, value: int
               ) -> Generator[Any, Any, None]:
    meta = yield from mount.metacache.bread(addr_block)
    set_ptr(meta.data, index, value)
    mount.metacache.bdwrite(meta)


def get_pointer(mount: "UfsMount", ip: "Inode", lbn: int
                ) -> Generator[Any, Any, int]:
    """The raw block pointer for ``lbn`` (0 = hole / unallocated)."""
    level, indices = lbn_path(lbn, mount.sb.bsize)
    if level == 0:
        return ip.direct[indices[0]]
    addr = ip.indirect if level == 1 else ip.dindirect
    bread = mount.metacache.bread
    for index in indices:
        if addr == HOLE:
            return HOLE
        addr = get_ptr((yield from bread(addr)).data, index)
    return addr


def set_pointer(mount: "UfsMount", ip: "Inode", lbn: int, value: int
                ) -> Generator[Any, Any, None]:
    """Install a block pointer, allocating indirect blocks as needed."""
    level, indices = lbn_path(lbn, mount.sb.bsize)
    ip.invalidate_translations()
    if level == 0:
        ip.direct[indices[0]] = value
        ip.mark_dirty()
        return
    root = "indirect" if level == 1 else "dindirect"
    addr = getattr(ip, root)
    if addr == HOLE:
        addr = yield from _alloc_meta_block(mount, ip)
        setattr(ip, root, addr)
        ip.mark_dirty()
    for index in indices[:-1]:
        inner = yield from _read_ptr(mount, addr, index)
        if inner == HOLE:
            inner = yield from _alloc_meta_block(mount, ip)
            yield from _write_ptr(mount, addr, index, inner)
        addr = inner
    yield from _write_ptr(mount, addr, indices[-1], value)


def _alloc_meta_block(mount: "UfsMount", ip: "Inode") -> Generator[Any, Any, int]:
    """Allocate and zero a block for pointers."""
    pref = mount.allocator.blkpref(ip, 0, ip.direct[NDADDR - 1] or ip.direct[0])
    addr = yield from mount.allocator.alloc_block(ip, pref)
    yield from mount.metacache.install_new(addr)
    meta = yield from mount.metacache.bread(addr)
    mount.metacache.bdwrite(meta)
    return addr


def bmap_read(mount: "UfsMount", ip: "Inode", lbn: int, maxcontig: int
              ) -> Generator[Any, Any, tuple[int, int]]:
    """Translate ``lbn``; returns ``(fragment address, contiguous blocks)``.

    The contiguous length is at most ``maxcontig`` blocks and at least 1
    (when the block exists).  A hole returns ``(HOLE, 1)``.
    """
    if maxcontig < 1:
        raise InvalidArgumentError("maxcontig must be >= 1")
    sb = mount.sb
    indirect = lbn >= NDADDR
    if ip.bmap_cache is not None:
        hit = ip.bmap_cache.lookup(lbn, sb.frag)
        if hit is not None:
            # The cached extent tuple answers without walking pointers:
            # "a small cache in the inode could reduce the cost of bmap
            # substantially".  Only a lookup's worth of CPU is charged.
            yield from mount.cpu.work("bmap", mount.cpu.costs.bmap * 0.15)
            addr, remaining = hit
            return addr, min(remaining, maxcontig)
    yield from _charge(mount, indirect)
    addr = yield from get_pointer(mount, ip, lbn)
    if addr == HOLE:
        return HOLE, 1
    length = 1
    prev = addr
    last_lbn = (ip.size - 1) // sb.bsize if ip.size > 0 else 0
    while length < maxcontig and lbn + length <= last_lbn:
        nxt = yield from get_pointer(mount, ip, lbn + length)
        if nxt != prev + sb.frag:
            break
        # Only full blocks extend a cluster (a fragment tail ends it).
        if ip.blksize(lbn + length) != sb.bsize:
            break
        prev = nxt
        length += 1
    if ip.bmap_cache is not None:
        ip.bmap_cache.insert(lbn, addr, length)
    return addr, length


def bmap_alloc(mount: "UfsMount", ip: "Inode", lbn: int, frags_needed: int
               ) -> Generator[Any, Any, int]:
    """Ensure ``lbn`` is backed by at least ``frags_needed`` fragments;
    returns the fragment address.

    Grows a fragment tail in place (or moves it) when the file extends; the
    caller holds the block's data in a dirty page, so no media copy is done
    here.
    """
    sb = mount.sb
    if not 1 <= frags_needed <= sb.frag:
        raise InvalidArgumentError("frags_needed must be in [1, frag]")
    indirect = lbn >= NDADDR
    yield from _charge(mount, indirect)
    existing = yield from get_pointer(mount, ip, lbn)
    prev = 0
    if lbn > 0:
        prev = yield from get_pointer(mount, ip, lbn - 1)
    # Fragments only make sense for direct-block tails.
    if lbn >= NDADDR:
        frags_needed = sb.frag
    old_frags = 0
    if existing != HOLE:
        old_size = ip.blksize(lbn)
        old_frags = old_size // sb.fsize
        if old_frags >= frags_needed:
            return existing
        new_addr = yield from mount.allocator.realloc_frags(
            ip, existing, old_frags, frags_needed,
            mount.allocator.blkpref(ip, lbn, prev),
        )
        if new_addr != existing:
            yield from set_pointer(mount, ip, lbn, new_addr)
        else:
            ip.invalidate_translations()
        return new_addr
    pref = mount.allocator.blkpref(ip, lbn, prev)
    if frags_needed == sb.frag:
        addr = yield from mount.allocator.alloc_block(ip, pref)
    else:
        addr = yield from mount.allocator.alloc_frags(ip, pref, frags_needed)
    yield from set_pointer(mount, ip, lbn, addr)
    return addr


def truncate_blocks(mount: "UfsMount", ip: "Inode") -> Generator[Any, Any, int]:
    """Free every block of the file (truncate to zero); returns frags freed.

    Walks direct, indirect, and double-indirect pointers, returning data
    blocks, pointer blocks, and the fragment tail to the allocator.  A fast
    symlink's pointer words are target bytes: they are cleared, not freed.
    """
    sb = mount.sb
    freed = 0
    if is_fast_symlink(ip):
        ip.direct, ip.indirect, ip.dindirect = [HOLE] * NDADDR, HOLE, HOLE
    last_lbn = (ip.size - 1) // sb.bsize if ip.size > 0 else -1
    for lbn in range(min(last_lbn + 1, NDADDR)):
        addr = ip.direct[lbn]
        if addr == HOLE:
            continue
        nfrags = ip.blksize(lbn) // sb.fsize
        _forget_meta_block(mount, ip, addr)
        mount.allocator.free_frags(ip, addr, nfrags)
        freed += nfrags
        ip.direct[lbn] = HOLE
    if ip.indirect != HOLE:
        freed += yield from _free_pointer_block(mount, ip, ip.indirect, depth=1)
        ip.indirect = HOLE
    if ip.dindirect != HOLE:
        freed += yield from _free_pointer_block(mount, ip, ip.dindirect, depth=2)
        ip.dindirect = HOLE
    ip.size = 0
    ip.invalidate_translations()
    ip.mark_dirty()
    return freed


def _forget_meta_block(mount: "UfsMount", ip: "Inode", addr: int) -> None:
    """A directory's and a slow symlink's blocks live in the buffer cache
    (a file's live in the page cache, which the caller empties): a freed
    one must leave it, or the block's next owner meets the dead buffer —
    ``install_new`` of a new directory's block refuses a cached one."""
    if not ip.is_reg:
        mount.metacache.drop(addr)


def _free_pointer_block(mount: "UfsMount", ip: "Inode", addr: int, depth: int
                        ) -> Generator[Any, Any, int]:
    sb = mount.sb
    meta = yield from mount.metacache.bread(addr)
    freed = 0
    for child in iter_ptrs(meta.data):
        if child == HOLE:
            continue
        if depth > 1:
            freed += yield from _free_pointer_block(mount, ip, child, depth - 1)
        else:
            _forget_meta_block(mount, ip, child)
            mount.allocator.free_frags(ip, child, sb.frag)
            freed += sb.frag
    mount.metacache.drop(addr)
    mount.allocator.free_frags(ip, addr, sb.frag)
    freed += sb.frag
    return freed
