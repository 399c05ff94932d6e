"""The S5 file system proper: free list, inodes, a flat root directory,
and the vnode read/write paths with optional Peacock-style clustering.

The LIFO free-list allocator is the load-bearing part: ``s5_mkfs`` builds
the chain in ascending block order, so a *fresh* file system hands out
contiguous blocks; every ``free``/``alloc`` cycle permutes the order, so an
*aged* file system does not ("it is based on a free list that gets
scrambled as the file system ages").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from repro.errors import (
    FileExistsError_, FileNotFoundError_, InvalidArgumentError, NoSpaceError,
)
from repro.s5fs.ondisk import (
    NICFREE, S5_DIRENT_SIZE, S5_MAGIC, S5_NADDR, S5_NDIRECT, S5_ROOT_INO,
    S5Dinode, S5Params, S5Superblock, check_s5_name, get_ptr, iter_ptrs,
    iter_s5_dirents, pack_free_chain_block, pack_s5_dirent, s5_dirent_ino,
    s5_lbn_path, set_ptr, set_s5_dirent_ino, unpack_free_chain_block,
)
from repro.sim.stats import StatSet
from repro.ufs.metacache import MetaBuf, MetaCache
from repro.ufs.ondisk import IFDIR, IFMT, IFREG
from repro.vfs.vnode import RW, PutFlags, StatFs, Vfs, Vnode, VnodeType

if TYPE_CHECKING:  # pragma: no cover
    from repro.disk.store import DiskStore
    from repro.kernel.system import System
    from repro.vm.page import Page

#: The longest run, in blocks, one mbread / mbwrite moves.
CLUSTER_BLOCKS = 56


def s5_mkfs(store: "DiskStore", params: S5Params | None = None,
            size_blocks: int | None = None) -> S5Superblock:
    """Build an S5 file system (offline, via the data plane)."""
    params = params if params is not None else S5Params()
    bsize = params.bsize
    per_block = bsize // 512
    total = size_blocks if size_blocks is not None else (
        store.total_sectors // per_block
    )
    if total < 16:
        raise InvalidArgumentError("device too small for S5FS")
    isize = max(1, (total * bsize // params.nbpi * 64) // bsize)
    data_start = 2 + isize
    if data_start >= total - 2:
        raise InvalidArgumentError("inode list leaves no data blocks")

    sb = S5Superblock(magic=S5_MAGIC, bsize=bsize, isize=isize, fsize=total,
                      tfree=0, nfree=0)
    # Build the free chain so blocks pop in ASCENDING order.  The chain
    # stores batches; within the superblock cache, free[] pops from the
    # top, so each batch is stored high-to-low.
    data_blocks = list(range(data_start, total))
    root_block = data_blocks.pop(0)  # root directory data
    chain_head = 0  # 0 terminates the chain
    batches: list[list[int]] = []
    batch: list[int] = []
    for blk in data_blocks:
        batch.append(blk)
        if len(batch) == NICFREE - 1:
            batches.append(batch)
            batch = []
    if batch:
        batches.append(batch)
    # Deepest batch = highest block numbers; link backwards.
    for batch in reversed(batches[1:] if batches else []):
        holder = batch[0]
        rest = batch[1:]
        entries = [chain_head] + list(reversed(rest))
        store.write(holder * per_block,
                    pack_free_chain_block(bsize, len(entries), entries))
        # The holder block itself is part of the chain: popping it yields
        # its stored batch.  Classic S5 keeps the holder as a free block
        # whose contents are read before reuse.
        chain_head = holder
    if batches:
        first = batches[0]
        entries = [chain_head] + list(reversed(first))
        sb.nfree = len(entries)
        sb.free = (entries + [0] * NICFREE)[:NICFREE]
    sb.tfree = len(data_blocks)

    # Inode list: zeroed; root dir at inode 2.
    zero = bytes(bsize)
    for blk in range(2, data_start):
        store.write(blk * per_block, zero)
    root = S5Dinode(mode=IFDIR | 0o755, nlink=2,
                    addrs=(root_block,) + (0,) * (S5_NADDR - 1),
                    size=2 * S5_DIRENT_SIZE)
    blk, off = sb.inode_location(S5_ROOT_INO)
    iblock = bytearray(bsize)
    iblock[off:off + 64] = root.pack()
    store.write(blk * per_block, bytes(iblock))
    dirblock = bytearray(bsize)
    dirblock[0:16] = pack_s5_dirent(S5_ROOT_INO, ".")
    dirblock[16:32] = pack_s5_dirent(S5_ROOT_INO, "..")
    store.write(root_block * per_block, bytes(dirblock))

    store.write(1 * per_block, sb.pack())
    return sb


class S5Inode(Vnode):
    """An in-memory S5 inode, the vnode of its file.  No page cache: ``rdwr``
    goes through the buffer cache (which carries no ``req``), ``getpage`` /
    ``putpage`` are EINVAL and ``fsync`` is the file system's ``sync``."""

    #: Bytes in the file: a plain attribute, which is ``Vnode.size``.
    size = 0

    def __init__(self, fs: "S5FileSystem", ino: int, din: S5Dinode):
        super().__init__(VnodeType.DIRECTORY if din.mode & IFMT == IFDIR
                         else VnodeType.REGULAR)
        self.fs = fs
        self.ino = ino
        self.mode = din.mode
        self.nlink = din.nlink
        self.addrs = list(din.addrs)
        self.size = din.size
        self.dirty = False

    def to_dinode(self) -> S5Dinode:
        return S5Dinode(mode=self.mode, nlink=self.nlink, uid_gid=0,
                        addrs=tuple(self.addrs), size=self.size)

    def rdwr(self, rw: RW, offset: int, payload: "bytes | int",
             req: Any | None = None) -> Generator[Any, Any, "bytes | int"]:
        fs = self.fs
        bsize = fs.sb.bsize
        cpu = fs.cpu
        if rw is RW.READ:
            if offset >= self.size:
                return b""
            remaining = min(int(payload), self.size - offset)
            parts: list[bytes] = []
            while remaining > 0:
                yield from cpu.work("syscall", cpu.costs.syscall)
                lbn = offset // bsize
                in_block = offset - lbn * bsize
                chunk = min(bsize - in_block, remaining)
                blk = yield from fs.bmap(self, lbn)
                if blk == 0:
                    buf = None
                elif fs.clustering and fs.cache.peek(blk) is None:
                    # Probe contiguity only on a cache miss (the probe itself
                    # costs bmap work; cached blocks need none of it).
                    first, n = yield from self.bmap(lbn)
                    bufs = yield from fs.cache.mbread(
                        list(range(first, first + n)))
                    buf = bufs[0]
                else:
                    buf = yield from fs.cache.bread(blk)
                if buf is None:
                    parts.append(bytes(chunk))  # hole
                else:
                    yield from cpu.copy("copyout", chunk)
                    parts.append(bytes(buf.data[in_block:in_block + chunk]))
                offset += chunk
                remaining -= chunk
            return b"".join(parts)
        data = bytes(payload)
        written = 0
        pending: list = []  # delayed buffers for mbwrite clustering
        while written < len(data):
            yield from cpu.work("syscall", cpu.costs.syscall)
            lbn = (offset + written) // bsize
            in_block = (offset + written) - lbn * bsize
            chunk = min(bsize - in_block, len(data) - written)
            blk = yield from fs.bmap(self, lbn, alloc=True)
            if in_block == 0 and chunk == bsize:
                buf = yield from fs.cache.getblk(blk)
            else:
                buf = yield from fs.cache.bread(blk)
            yield from cpu.copy("copyin", chunk)
            buf.data[in_block:in_block + chunk] = data[written:written + chunk]
            if fs.clustering:
                buf.dirty = True
                if pending and buf.frag_addr != pending[-1].frag_addr + 1:
                    yield from fs.cache.mbwrite(pending)
                    pending = []
                pending.append(buf)
                if len(pending) >= CLUSTER_BLOCKS:
                    yield from fs.cache.mbwrite(pending)
                    pending = []
            else:
                yield from fs.cache.bawrite(buf)
            written += chunk
        if pending:
            yield from fs.cache.mbwrite(pending)
        new_end = offset + written
        if new_end > self.size:
            self.size = new_end
            yield from fs.iput(self)
        return written

    def bmap(self, lbn: int) -> Generator[Any, Any, tuple[int, int]]:
        """Up to :data:`CLUSTER_BLOCKS` contiguous blocks from ``lbn``, one
        pointer walk per block, as Peacock's read-ahead probe makes them."""
        fs = self.fs
        first = yield from fs.bmap(self, lbn)
        if first == 0:
            return 0, 1
        n = 1
        nblocks = (self.size + fs.sb.bsize - 1) // fs.sb.bsize
        while n < CLUSTER_BLOCKS and lbn + n < nblocks:
            nxt = yield from fs.bmap(self, lbn + n)
            if nxt != first + n:
                break
            n += 1
        return first, n

    def getpage(self, offset: int, rw: RW = RW.READ,
                req: Any | None = None) -> Generator[Any, Any, "Page"]:
        raise InvalidArgumentError("S5FS files are not pageable")
        yield  # pragma: no cover

    def putpage(self, offset: int, length: int, flags: PutFlags,
                req: Any | None = None) -> Generator[Any, Any, None]:
        raise InvalidArgumentError("S5FS files are not pageable")
        yield  # pragma: no cover

    def fsync(self, req: Any | None = None) -> Generator[Any, Any, None]:
        yield from self.fs.sync()


class S5FileSystem(Vfs):
    """A mounted S5FS with a flat root directory, on a machine built with
    no UFS: it becomes the machine's ``system.mount``, so ``Proc(system)``
    drives it by ``/name`` paths.

    ``clustering=True`` enables the Peacock-style mbread/mbwrite paths:
    sequential reads probe how far the file continues physically
    contiguously and fetch the run with one I/O; writes are delayed and
    flushed in contiguous runs.
    """

    def __init__(self, system: "System", nbufs: int = 64,
                 clustering: bool = False):
        super().__init__("s5fs")
        self.cpu = system.cpu
        self.clustering = clustering
        # Block 1, read as two sectors: bsize must be 1024 for now.
        self.sb = S5Superblock.unpack(system.store.read(1 * 2, 2))
        if self.sb.bsize % 512:
            raise InvalidArgumentError("bad S5 block size")
        #: The old-style fixed buffer cache: everything, data included,
        #: moves through it.  One "fragment" per block, so buffer
        #: addresses are S5 block numbers.
        self.cache = MetaCache(system.engine, system.driver, self.cpu,
                               self.sb.bsize, frag_sectors=self.sb.bsize // 512,
                               capacity=nbufs)
        self.stats = StatSet("s5fs")
        self._icache: dict[int, S5Inode] = {}
        # replace=True: a remount over the same machine takes the names.
        system.metrics.register("s5fs", self.stats, replace=True)
        system.metrics.register("s5fs.metacache", self.cache.stats,
                                replace=True)
        system.mount = self

    def statfs(self) -> StatFs:
        """Counts in blocks, the fragment of S5FS; no reserve."""
        sb = self.sb
        return StatFs(sb.bsize, sb.bsize, sb.fsize, sb.tfree, sb.tfree)

    @property
    def root(self) -> S5Inode:
        return self._icache[S5_ROOT_INO]  # read in by the first lookup

    # -- free list (the aging mechanism) ------------------------------------------
    def alloc_block(self) -> Generator[Any, Any, int]:
        """Pop the free list head (LIFO)."""
        sb = self.sb
        yield from self.cpu.work("alloc", self.cpu.costs.alloc_block)
        if sb.nfree == 0 or sb.tfree == 0:
            raise NoSpaceError("S5FS out of blocks")
        sb.nfree -= 1
        blk = sb.free[sb.nfree]
        if sb.nfree == 0:
            # The popped block holds the next batch of the chain.
            if blk == 0:
                raise NoSpaceError("S5FS free list exhausted")
            buf = yield from self.cache.bread(blk)
            nfree, entries = unpack_free_chain_block(bytes(buf.data))
            sb.nfree = nfree
            sb.free = (entries + [0] * NICFREE)[:NICFREE]
        sb.tfree -= 1
        if blk == 0:
            raise NoSpaceError("S5FS free list exhausted")
        self.stats.incr("blocks_allocated")
        return blk

    def free_block(self, blk: int) -> Generator[Any, Any, None]:
        """Push onto the free list head — this is what scrambles ordering."""
        sb = self.sb
        if sb.nfree == NICFREE:
            # Spill the cached batch into the freed block itself.
            buf = yield from self.cache.getblk(blk)
            buf.data[:] = pack_free_chain_block(sb.bsize, sb.nfree, sb.free)
            self.cache.bdwrite(buf)
            sb.nfree = 0
            sb.free = [0] * NICFREE
        sb.free[sb.nfree] = blk
        sb.nfree += 1
        sb.tfree += 1
        self.stats.incr("blocks_freed")

    # -- inodes ----------------------------------------------------------------------
    def iget(self, ino: int) -> Generator[Any, Any, S5Inode]:
        cached = self._icache.get(ino)
        if cached is not None:
            return cached
        blk, off = self.sb.inode_location(ino)
        buf = yield from self.cache.bread(blk)
        ip = S5Inode(self, ino, S5Dinode.unpack(bytes(buf.data[off:off + 64])))
        self._icache[ino] = ip
        return ip

    def iput(self, ip: S5Inode) -> Generator[Any, Any, None]:
        blk, off = self.sb.inode_location(ip.ino)
        buf = yield from self.cache.bread(blk)
        buf.data[off:off + 64] = ip.to_dinode().pack()
        self.cache.bdwrite(buf)
        ip.dirty = False

    def _alloc_inode(self, mode: int) -> Generator[Any, Any, S5Inode]:
        """Linear scan of the inode list (classic S5, no cache)."""
        for ino in range(S5_ROOT_INO + 1, self.sb.inodes):
            blk, off = self.sb.inode_location(ino)
            buf = yield from self.cache.bread(blk)
            din = S5Dinode.unpack(bytes(buf.data[off:off + 64]))
            if not din.is_allocated and ino not in self._icache:
                ip = S5Inode(self, ino, S5Dinode(mode=mode, nlink=1))
                self._icache[ino] = ip
                yield from self.iput(ip)
                return ip
        raise NoSpaceError("S5FS out of inodes")

    # -- bmap -------------------------------------------------------------------------
    def bmap(self, ip: S5Inode, lbn: int, alloc: bool = False
             ) -> Generator[Any, Any, int]:
        yield from self.cpu.work("bmap", self.cpu.costs.bmap)
        slot, indices = s5_lbn_path(lbn, self.sb.bsize)
        blk = ip.addrs[slot]
        if blk == 0 and alloc:
            blk = yield from (self._new_pointer_block() if indices
                              else self.alloc_block())
            ip.addrs[slot] = blk
            ip.dirty = True
        for depth, index in enumerate(indices, start=1):
            if blk == 0:
                return 0
            blk = yield from self._pointer(blk, index, alloc,
                                           pointer_block=depth < len(indices))
        return blk

    def _new_pointer_block(self) -> Generator[Any, Any, int]:
        blk = yield from self.alloc_block()
        buf = yield from self.cache.getblk(blk)
        buf.data[:] = bytes(self.sb.bsize)
        self.cache.bdwrite(buf)
        return blk

    def _pointer(self, block: int, index: int, alloc: bool,
                 pointer_block: bool = False) -> Generator[Any, Any, int]:
        buf = yield from self.cache.bread(block)
        value = get_ptr(buf.data, index)
        if value == 0 and alloc:
            value = yield from (self._new_pointer_block() if pointer_block
                                else self.alloc_block())
            set_ptr(buf.data, index, value)
            self.cache.bdwrite(buf)
        return value

    # -- the namespace: a flat root directory, ``/name`` paths --------------------
    @staticmethod
    def _name(path: str) -> str:
        if not path.startswith("/"):
            raise InvalidArgumentError(f"path must be absolute: {path!r}")
        return path[1:]

    def namei(self, path: str) -> Generator[Any, Any, S5Inode]:
        """The inode ``/name`` names; ``/`` is the root directory."""
        name = self._name(path)
        if not name:
            return (yield from self.iget(S5_ROOT_INO))
        found = yield from self._find(name)
        if found is None:
            raise FileNotFoundError_(path)
        return (yield from self.iget(found[2]))

    def _find(self, name: str
              ) -> Generator[Any, Any, "tuple[MetaBuf, int, int] | None"]:
        """``(buffer, offset, ino)`` of the root's entry ``name``, if any."""
        root = yield from self.iget(S5_ROOT_INO)
        nblocks = (root.size + self.sb.bsize - 1) // self.sb.bsize
        for lbn in range(nblocks):
            blk = yield from self.bmap(root, lbn)
            buf = yield from self.cache.bread(blk)
            for off, ino, entry in iter_s5_dirents(bytes(buf.data)):
                if entry == name:
                    return buf, off, ino
        return None

    def create(self, path: str) -> Generator[Any, Any, S5Inode]:
        """A new empty regular file ``/name``.  The name is checked before
        anything is allocated, so a bad one costs no inode."""
        name = self._name(path)
        check_s5_name(name)
        if (yield from self._find(name)) is not None:
            raise FileExistsError_(path)
        ip = yield from self._alloc_inode(IFREG | 0o644)
        yield from self._dir_enter(name, ip.ino)
        self.stats.incr("creates")
        return ip

    def _dir_enter(self, name: str, ino: int) -> Generator[Any, Any, None]:
        root = yield from self.iget(S5_ROOT_INO)
        entry = pack_s5_dirent(ino, name)
        nblocks = (root.size + self.sb.bsize - 1) // self.sb.bsize
        for lbn in range(nblocks):
            blk = yield from self.bmap(root, lbn)
            buf = yield from self.cache.bread(blk)
            for off in range(0, self.sb.bsize, S5_DIRENT_SIZE):
                in_file = lbn * self.sb.bsize + off
                if s5_dirent_ino(buf.data, off) != 0:
                    continue
                # A free slot (deleted entry, or virgin space at the tail).
                if in_file >= root.size:
                    root.size = in_file + S5_DIRENT_SIZE
                    yield from self.iput(root)
                buf.data[off:off + S5_DIRENT_SIZE] = entry
                yield from self.cache.bwrite(buf)
                return
        # Need a new directory block.
        blk = yield from self.bmap(root, nblocks, alloc=True)
        buf = yield from self.cache.getblk(blk)
        buf.data[:] = bytes(self.sb.bsize)
        buf.data[0:S5_DIRENT_SIZE] = entry
        yield from self.cache.bwrite(buf)
        root.size = nblocks * self.sb.bsize + S5_DIRENT_SIZE
        yield from self.iput(root)

    def unlink(self, path: str) -> Generator[Any, Any, None]:
        found = yield from self._find(self._name(path))
        if found is None:
            raise FileNotFoundError_(path)
        buf, off, ino = found
        set_s5_dirent_ino(buf.data, off, 0)
        yield from self.cache.bwrite(buf)
        yield from self._truncate_and_free(ino)
        self.stats.incr("unlinks")

    def _truncate_and_free(self, ino: int) -> Generator[Any, Any, None]:
        ip = yield from self.iget(ino)
        nblocks = (ip.size + self.sb.bsize - 1) // self.sb.bsize
        for lbn in range(nblocks):
            blk = yield from self.bmap(ip, lbn)
            if blk:
                self.cache.drop(blk)
                yield from self.free_block(blk)
        for slot in (S5_NDIRECT, S5_NDIRECT + 1):
            if ip.addrs[slot]:
                # Free pointer blocks (double-indirect inner blocks too).
                if slot == S5_NDIRECT + 1:
                    buf = yield from self.cache.bread(ip.addrs[slot])
                    for inner in iter_ptrs(buf.data):
                        if inner:
                            self.cache.drop(inner)
                            yield from self.free_block(inner)
                self.cache.drop(ip.addrs[slot])
                yield from self.free_block(ip.addrs[slot])
        ip.mode = 0
        ip.nlink = 0
        ip.size = 0
        ip.addrs = [0] * S5_NADDR
        yield from self.iput(ip)
        del self._icache[ino]

    def sync(self) -> Generator[Any, Any, None]:
        for ip in list(self._icache.values()):
            if ip.dirty:
                yield from self.iput(ip)
        yield from self.cache.flush()
        buf = yield from self.cache.getblk(1)
        buf.data[:] = self.sb.pack()
        yield from self.cache.bwrite(buf)

    # -- aging ------------------------------------------------------------------------------------
    def free_list_contiguity(self) -> float:
        """Fraction of adjacent pops in the cached free list that are
        physically consecutive — 1.0 on a fresh fs, ~0 when aged."""
        entries = [b for b in reversed(self.sb.free[:self.sb.nfree]) if b]
        if len(entries) < 2:
            return 1.0
        consecutive = sum(1 for a, b in zip(entries, entries[1:]) if b == a + 1)
        return consecutive / (len(entries) - 1)
