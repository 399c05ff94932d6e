"""The S5 file system proper: free list, inodes, a flat root directory,
read/write paths with optional Peacock-style clustering.

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
    S5Dinode, S5Params, S5Superblock, get_ptr, iter_ptrs, iter_s5_dirents,
    pack_free_chain_block, pack_s5_dirent, s5_dirent_ino, s5_lbn_path,
    set_ptr, set_s5_dirent_ino, unpack_free_chain_block,
)
from repro.sim.stats import StatSet
from repro.ufs.metacache import MetaCache
from repro.ufs.ondisk import IFDIR, IFREG

if TYPE_CHECKING:  # pragma: no cover
    from repro.cpu import Cpu
    from repro.disk.driver import DiskDriver
    from repro.disk.store import DiskStore
    from repro.sim.engine import Engine


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


class S5Inode:
    """In-memory S5 inode."""

    def __init__(self, ino: int, din: S5Dinode):
        self.ino = ino
        self.mode = din.mode
        self.nlink = din.nlink
        self.addrs = list(din.addrs)
        self.size = din.size
        self.dirty = False

    def to_dinode(self) -> S5Dinode:
        return S5Dinode(mode=self.mode, nlink=self.nlink, uid_gid=0,
                        addrs=tuple(self.addrs), size=self.size)


class S5FileSystem:
    """A mounted S5FS with a flat root directory.

    ``clustering=True`` enables the Peacock-style mbread/mbwrite paths:
    sequential reads probe how far the file continues physically
    contiguously and fetch the run with one I/O; writes are delayed and
    flushed in contiguous runs.
    """

    def __init__(self, engine: "Engine", cpu: "Cpu", driver: "DiskDriver",
                 nbufs: int = 64, clustering: bool = False,
                 cluster_blocks: int = 56):
        self.engine = engine
        self.cpu = cpu
        self.driver = driver
        self.clustering = clustering
        self.cluster_blocks = cluster_blocks
        self.sb = S5Superblock.unpack(
            driver.disk.store.read(1 * 2, 2)  # bsize must be 1024 for now
        )
        if self.sb.bsize % 512:
            raise InvalidArgumentError("bad S5 block size")
        #: The old-style fixed buffer cache: everything, data included,
        #: moves through it.  One "fragment" per block, so buffer
        #: addresses are S5 block numbers.
        self.cache = MetaCache(engine, driver, cpu, self.sb.bsize,
                               frag_sectors=self.sb.bsize // 512,
                               capacity=nbufs)
        self.stats = StatSet("s5fs")
        self._icache: dict[int, S5Inode] = {}

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
        ip = S5Inode(ino, S5Dinode.unpack(bytes(buf.data[off:off + 64])))
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
                ip = S5Inode(ino, S5Dinode(mode=mode, nlink=1))
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
            if pointer_block:
                value = yield from self._new_pointer_block()
            else:
                value = yield from self.alloc_block()
            set_ptr(buf.data, index, value)
            self.cache.bdwrite(buf)
        return value

    def _contig_run(self, ip: S5Inode, lbn: int, limit: int
                    ) -> Generator[Any, Any, list[int]]:
        """Physical blocks for lbn, lbn+1, ... while consecutive."""
        first = yield from self.bmap(ip, lbn)
        if first == 0:
            return []
        run = [first]
        nblocks = (ip.size + self.sb.bsize - 1) // self.sb.bsize
        while len(run) < limit and lbn + len(run) < nblocks:
            nxt = yield from self.bmap(ip, lbn + len(run))
            if nxt != run[-1] + 1:
                break
            run.append(nxt)
        return run

    # -- directory (flat root) -----------------------------------------------------------
    def lookup(self, name: str) -> Generator[Any, Any, int | None]:
        root = yield from self.iget(S5_ROOT_INO)
        nblocks = (root.size + self.sb.bsize - 1) // self.sb.bsize
        for lbn in range(nblocks):
            blk = yield from self.bmap(root, lbn)
            buf = yield from self.cache.bread(blk)
            for _, ino, entry in iter_s5_dirents(bytes(buf.data)):
                if entry == name:
                    return ino
        return None

    def create(self, name: str) -> Generator[Any, Any, S5Inode]:
        existing = yield from self.lookup(name)
        if existing is not None:
            raise FileExistsError_(name)
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

    def unlink(self, name: str) -> Generator[Any, Any, None]:
        root = yield from self.iget(S5_ROOT_INO)
        nblocks = (root.size + self.sb.bsize - 1) // self.sb.bsize
        for lbn in range(nblocks):
            blk = yield from self.bmap(root, lbn)
            buf = yield from self.cache.bread(blk)
            for off, ino, entry in iter_s5_dirents(bytes(buf.data)):
                if entry != name:
                    continue
                set_s5_dirent_ino(buf.data, off, 0)
                yield from self.cache.bwrite(buf)
                yield from self._truncate_and_free(ino)
                self.stats.incr("unlinks")
                return
        raise FileNotFoundError_(name)

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

    # -- read / write ---------------------------------------------------------------------------
    def read(self, ip: S5Inode, offset: int, count: int
             ) -> Generator[Any, Any, bytes]:
        bsize = self.sb.bsize
        cpu = self.cpu
        if offset >= ip.size:
            return b""
        count = min(count, ip.size - offset)
        parts: list[bytes] = []
        remaining = count
        while remaining > 0:
            yield from cpu.work("syscall", cpu.costs.syscall)
            lbn = offset // bsize
            in_block = offset - lbn * bsize
            chunk = min(bsize - in_block, remaining)
            blk = yield from self.bmap(ip, lbn)
            if blk == 0:
                buf = None
            elif self.clustering and self.cache.peek(blk) is None:
                # Probe contiguity only on a cache miss (the probe itself
                # costs bmap work; cached blocks need none of it).
                run = yield from self._contig_run(ip, lbn, self.cluster_blocks)
                bufs = yield from self.cache.mbread(run)
                buf = bufs[0]
            else:
                buf = yield from self.cache.bread(blk)
            if buf is None:
                parts.append(bytes(chunk))  # hole
            else:
                yield from cpu.copy("copyout", chunk)
                parts.append(bytes(buf.data[in_block:in_block + chunk]))
            offset += chunk
            remaining -= chunk
        return b"".join(parts)

    def write(self, ip: S5Inode, offset: int, data: bytes
              ) -> Generator[Any, Any, int]:
        bsize = self.sb.bsize
        cpu = self.cpu
        written = 0
        pending: list = []  # delayed buffers for mbwrite clustering
        while written < len(data):
            yield from cpu.work("syscall", cpu.costs.syscall)
            lbn = (offset + written) // bsize
            in_block = (offset + written) - lbn * bsize
            chunk = min(bsize - in_block, len(data) - written)
            blk = yield from self.bmap(ip, lbn, alloc=True)
            if in_block == 0 and chunk == bsize:
                buf = yield from self.cache.getblk(blk)
            else:
                buf = yield from self.cache.bread(blk)
            yield from cpu.copy("copyin", chunk)
            buf.data[in_block:in_block + chunk] = data[written:written + chunk]
            if self.clustering:
                buf.dirty = True
                if pending and buf.frag_addr != pending[-1].frag_addr + 1:
                    yield from self.cache.mbwrite(pending)
                    pending = []
                pending.append(buf)
                if len(pending) >= self.cluster_blocks:
                    yield from self.cache.mbwrite(pending)
                    pending = []
            else:
                yield from self.cache.bawrite(buf)
            written += chunk
        if pending:
            yield from self.cache.mbwrite(pending)
        new_end = offset + written
        if new_end > ip.size:
            ip.size = new_end
            yield from self.iput(ip)
        return written

    def sync(self) -> Generator[Any, Any, None]:
        for ip in list(self._icache.values()):
            if ip.dirty:
                yield from self.iput(ip)
        yield from self.cache.flush()
        buf = yield from self.cache.getblk(1)
        buf.data[:] = self.sb.pack()
        yield from self.cache.bwrite(buf)

    # -- aging ------------------------------------------------------------------------------------
    def free_list_contiguity(self, sample: int = 200) -> float:
        """Fraction of adjacent pops in the cached free list that are
        physically consecutive — 1.0 on a fresh fs, ~0 when aged."""
        entries = [b for b in reversed(self.sb.free[:self.sb.nfree]) if b]
        if len(entries) < 2:
            return 1.0
        entries = entries[:sample]
        consecutive = sum(1 for a, b in zip(entries, entries[1:]) if b == a + 1)
        return consecutive / (len(entries) - 1)
