"""A mounted UFS: inodes, name lookup, file operations, sync.

The mount owns the authoritative in-memory copies of the superblock and
cylinder groups (as the kernel does), an inode cache, the metadata buffer
cache, and the allocator.  ``sync()`` packs everything dirty back to disk;
``fsck`` then validates the on-disk bytes independently.

Directory-modifying operations write the affected metadata synchronously —
the UFS consistency discipline whose cost the paper's B_ORDER proposal
targets.  Pass ``ordered_metadata=True`` to use B_ORDER barrier writes
instead (asynchronous but unreorderable), the future-work variant.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Iterator

from repro.core import ClusterTuning, FreeBehindPolicy
from repro.disk.buf import Buf, BufOp
from repro.errors import (
    CorruptionError, DirectoryNotEmptyError, FileExistsError_,
    FileNotFoundError_, InvalidArgumentError, IsADirectoryError_,
    NotADirectoryError_, decode_name,
)
from repro.sim.events import EventFailed
from repro.sim.trace import Tracer
from repro.ufs import bmap, dir as dirops
from repro.ufs.alloc import Allocator
from repro.ufs.fsck import fsck
from repro.ufs.inode import Inode
from repro.ufs.metacache import MetaCache
from repro.ufs.ondisk import (
    DINODE_SIZE, Dinode, IFDIR, IFLNK, IFREG, NDADDR, ROOT_INO, SBLOCK,
    SBLOCK_SECTORS, CylinderGroup, Superblock, dir_records, empty_dirblock,
    is_fast_symlink, pack_dirent, DIRBLKSIZ, pack_fast_symlink, resolve_lbn,
    unpack_fast_symlink,
)
from repro.ufs.vnode import UfsVnode
from repro.vfs.vnode import StatFs, Vfs

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.throttle import WriteThrottle
    from repro.cpu import Cpu
    from repro.disk.driver import DiskDriver
    from repro.obs.metrics import MetricsRegistry
    from repro.sim.engine import Engine
    from repro.vm.pagecache import PageCache


class UfsMount(Vfs):
    """One mounted instance of UFS."""

    def __init__(self, engine: "Engine", metrics: "MetricsRegistry",
                 cpu: "Cpu", driver: "DiskDriver",
                 pagecache: "PageCache", tuning: ClusterTuning | None = None,
                 tracer: Tracer | None = None, metacache_blocks: int = 64,
                 ordered_metadata: bool = False):
        super().__init__("ufs0")
        self.engine = engine
        self.cpu = cpu
        self.driver = driver
        self.pagecache = pagecache
        self.tuning = tuning if tuning is not None else ClusterTuning.new_system()
        self.trace = tracer if tracer is not None else Tracer(engine)
        self.stats = metrics.counters("ufs")
        #: Shared per-mount throttle counters: every inode's WriteThrottle
        #: reports into this one StatSet.
        self.throttle_stats = metrics.counters("ufs.throttle")
        self.ordered_metadata = ordered_metadata

        store = driver.disk.store
        region = driver.disk.integrity
        # Mount-time reads (superblock, group headers) go through the data
        # plane directly: mount is not on any benchmarked path.  The
        # superblock lives at the canonical 8 KB offset (block 1).
        #: True if the primary superblock failed its integrity check and
        #: the mount came up from the region's replica.
        self.sb_recovered = False
        raw = store.read(SBLOCK, SBLOCK_SECTORS)
        if region is None:
            self.sb = Superblock.unpack(raw)
        else:
            try:
                if region.verify_range(SBLOCK, raw):
                    raise CorruptionError(
                        "primary superblock failed integrity check")
                self.sb = Superblock.unpack(raw)
            except CorruptionError:
                # Come up from the replica; the primary stays rotted on
                # disk until the next sync() rewrite or an fsck
                # rewrite_superblock action heals it.
                self.sb = Superblock.unpack(region.sb_replica())
                self.sb_recovered = True
                self.stats.incr("sb_replica_mounts")
        if pagecache.page_size != self.sb.bsize:
            raise InvalidArgumentError(
                "this reproduction assumes page size == block size "
                f"({pagecache.page_size} != {self.sb.bsize})"
            )
        frag_sectors = self.sb.fsize // 512
        self.cgs: list[CylinderGroup] = []
        self._dirty_cgs: set[int] = set()
        self._sb_dirty = False
        for cgx in range(self.sb.ncg):
            sector = self.sb.cg_header_frag(cgx) * frag_sectors
            data = store.read(sector, self.sb.bsize // 512)
            if region is not None:
                try:
                    if region.verify_range(sector, data):
                        raise CorruptionError(
                            f"cg {cgx} header failed integrity check")
                    cg = CylinderGroup.unpack(data, self.sb)
                except CorruptionError:
                    cg = CylinderGroup.unpack(region.cg_replica(cgx), self.sb)
                    self.stats.incr("cg_replica_mounts")
                    # Self-heal: the next sync() rewrites (and restamps)
                    # the primary from the recovered copy.
                    self._dirty_cgs.add(cgx)
            else:
                cg = CylinderGroup.unpack(data, self.sb)
            self.cgs.append(cg)
        if self.sb_recovered:
            self._sb_dirty = True

        self.metacache = MetaCache(engine, metrics, "ufs.metacache", driver,
                                   cpu, self.sb.bsize, frag_sectors,
                                   capacity=metacache_blocks)
        self.allocator = Allocator(self)
        #: Consulted only while ``tuning.freebehind`` is on (``ufs_rdwr``).
        self.freebehind = FreeBehindPolicy(
            min_offset=self.tuning.freebehind_min_offset)
        #: The in-core inode table: inode number -> its vnode.
        self._vnodes: dict[int, UfsVnode] = {}

    # -- Vfs interface ---------------------------------------------------------
    @property
    def root(self) -> UfsVnode:
        vn = self._vnodes.get(ROOT_INO)
        if vn is None:
            raise RuntimeError("call mount.activate() (a process) first")
        return vn

    def activate(self) -> Generator[Any, Any, "UfsMount"]:
        """Read the root inode (the only I/O mount needs a process for)."""
        yield from self.iget(ROOT_INO)
        return self

    def statfs(self) -> StatFs:
        """Counts in fragments; the ``minfree`` reserve rounds up."""
        sb = self.sb
        free = sb.cs_nbfree * sb.frag + sb.cs_nffree
        reserve = sb.total_frags - sb.total_frags * (100 - sb.minfree) // 100
        return StatFs(sb.bsize, sb.fsize, sb.total_frags, free,
                      max(0, free - reserve))

    def throttles(self) -> Iterator[tuple[str, "WriteThrottle"]]:
        for ino, vn in self._vnodes.items():
            yield f"inode {ino}", vn.inode.throttle

    # -- inode management ----------------------------------------------------------
    def vnodes(self) -> Iterator[UfsVnode]:
        """Every vnode in core (the root included)."""
        return iter(self._vnodes.values())

    def inodes(self) -> Iterator[Inode]:
        """Every inode in core."""
        return (vn.inode for vn in self._vnodes.values())

    def cached_fragment(self, frag: int, ino: int, lbn: int,
                        off: int) -> "bytes | None":
        """The page-cache copy of a data fragment (clean *or* dirty), read
        only.  The block-pointer guard rejects stale attribution: the
        inode must still map ``lbn`` to ``frag``'s block."""
        vn = self._vnodes.get(ino)
        if vn is None or lbn >= NDADDR:
            # Indirect blocks would need a pointer walk; decline (rare —
            # files that large fall through to unrepairable unless
            # rewritten).
            return None
        ip = vn.inode
        addr = ip.direct[lbn] if lbn < len(ip.direct) else 0
        if addr == 0 or frag - off != addr:
            return None
        sb = self.sb
        offset = lbn * sb.bsize
        pc = self.pagecache
        if offset % pc.page_size != 0:
            return None
        page = pc.lookup(vn, offset)
        if page is None or not page.valid or page.locked:
            return None
        lo = off * sb.fsize
        chunk = bytes(page.data[lo:lo + sb.fsize])
        # Partial tail pages: the fragment must lie inside the cached span.
        return chunk if len(chunk) == sb.fsize else None

    def _incore(self, ino: int, din: Dinode) -> UfsVnode:
        """Enter inode ``ino``, as ``din`` has it, in the in-core table."""
        vn = self._vnodes[ino] = UfsVnode(self, Inode(self, ino, din))
        return vn

    def iget(self, ino: int) -> Generator[Any, Any, UfsVnode]:
        """Get (reading if necessary) the vnode for inode ``ino``."""
        vn = self._vnodes.get(ino)
        if vn is not None:
            return vn
        frag_addr, byte_off = self.sb.inode_location(ino)
        meta = yield from self.metacache.bread(frag_addr)
        vn = self._incore(ino, Dinode.unpack(
            bytes(meta.data[byte_off:byte_off + DINODE_SIZE])))
        yield from self.cpu.work("inode", self.cpu.costs.inode_update)
        return vn

    def write_inode(self, ip: Inode, sync: bool = False
                    ) -> Generator[Any, Any, None]:
        """Pack the dinode into its inode block; sync or delayed."""
        frag_addr, byte_off = self.sb.inode_location(ip.ino)
        meta = yield from self.metacache.bread(frag_addr)
        meta.data[byte_off:byte_off + DINODE_SIZE] = ip.to_dinode().pack()
        ip.dirty = False
        yield from self.cpu.work("inode", self.cpu.costs.inode_update)
        if sync:
            yield from self.meta_write(meta)
        else:
            self.metacache.bdwrite(meta)

    def meta_write(self, meta) -> Generator[Any, Any, None]:
        """A consistency-critical metadata write: synchronous today, or an
        asynchronous B_ORDER barrier write when ``ordered_metadata`` is on
        (the paper's future-work proposal)."""
        if self.ordered_metadata:
            yield from self.metacache.bowrite(meta)
        else:
            yield from self.metacache.bwrite(meta)

    def mark_cg_dirty(self, cgx: int) -> None:
        self._dirty_cgs.add(cgx)
        self._sb_dirty = True

    def flush_disk(self, req: Any = None) -> Generator[Any, Any, None]:
        """Emit a disk FLUSH barrier and wait for it — the durability point
        every fsync/O_SYNC acknowledgement rests on.  A no-op on
        write-through disks (no volatile cache to drain)."""
        buf = self.driver.issue_flush(owner=f"{self.name}.flush", request=req)
        if buf is None:
            return
        self.stats.incr("disk_flushes")
        try:
            yield buf.done
        except EventFailed as failure:
            cause = failure.args[0] if failure.args else failure
            raise cause from None

    # -- sync --------------------------------------------------------------------------
    def sync(self) -> Generator[Any, Any, None]:
        """Flush dirty inodes, data pages, cylinder groups, superblock."""
        for vn in list(self._vnodes.values()):
            if self.pagecache.dirty_pages(vn):
                yield from vn.fsync()
            elif vn.inode.dirty:
                yield from self.write_inode(vn.inode, sync=False)
        yield from self.metacache.flush()
        frag_sectors = self.sb.fsize // 512
        for cgx in sorted(self._dirty_cgs):
            data = self.cgs[cgx].pack(self.sb)
            buf = Buf(self.engine, BufOp.WRITE,
                      self.sb.cg_header_frag(cgx) * frag_sectors,
                      len(data) // 512, data=data, fua=True)
            self.driver.strategy(buf)
            yield buf.done
        self._dirty_cgs.clear()
        # The superblock is always rewritten (update(8) behaviour).
        data = self.sb.pack()
        buf = Buf(self.engine, BufOp.WRITE, self.sb.frag * frag_sectors,
                  len(data) // 512, data=data, fua=True)
        self.driver.strategy(buf)
        yield buf.done
        self._sb_dirty = False
        # sync(2)'s contract is "everything written is on stable storage":
        # drain whatever the drive still holds volatile.
        yield from self.flush_disk()

    # -- name lookup ----------------------------------------------------------------------
    def namei(self, path: str, follow: bool = True,
              _depth: int = 0) -> Generator[Any, Any, UfsVnode]:
        """Resolve an absolute path to a vnode, following symlinks."""
        if _depth > 8:
            from repro.errors import FilesystemError

            raise FilesystemError(f"too many levels of symbolic links: {path}")
        parts = self._split(path)
        vn = yield from self.iget(ROOT_INO)
        for i, part in enumerate(parts):
            if not vn.inode.is_dir:
                raise NotADirectoryError_(f"{part!r} looked up in non-directory")
            yield from self.cpu.work("namei", self.cpu.costs.namei_component)
            ino = yield from dirops.lookup(self, vn.inode, part)
            if ino is None:
                raise FileNotFoundError_(path)
            vn = yield from self.iget(ino)
            last = i == len(parts) - 1
            if vn.inode.is_symlink and (follow or not last):
                target = yield from self.readlink_inode(vn.inode)
                rest = "/".join(parts[i + 1:])
                next_path = target + ("/" + rest if rest else "")
                return (yield from self.namei(next_path, follow=follow,
                                              _depth=_depth + 1))
        return vn

    # -- symlinks -----------------------------------------------------------------------
    def symlink(self, target: str, link_path: str
                ) -> Generator[Any, Any, UfsVnode]:
        """Create a symbolic link.  Short targets are stored inside the
        dinode's pointer area (the "fast symlink" the paper points to as
        prior art for data-in-the-inode)."""
        if not target:
            raise InvalidArgumentError("empty symlink target")
        if not target.startswith("/"):
            raise InvalidArgumentError(
                "this reproduction supports absolute symlink targets only")
        dir_vn, name = yield from self._dir_and_name(link_path)
        clash = yield from dirops.lookup(self, dir_vn.inode, name)
        if clash is not None:
            raise FileExistsError_(link_path)
        ino = yield from self.allocator.alloc_inode(
            self.sb.cg_of_inode(dir_vn.inode.ino), IFLNK)
        vn = self._incore(ino, Dinode(mode=IFLNK | 0o777, nlink=1))
        ip = vn.inode
        encoded = target.encode()
        ip.size = len(encoded)
        if is_fast_symlink(ip):
            # Fast symlink: pack the target into the pointer words.
            ip.direct, ip.indirect, ip.dindirect = pack_fast_symlink(encoded)
            self.stats.incr("fast_symlinks")
        else:
            # Slow symlink: the target lives in a data block.
            nfrags = max(1, -(-len(encoded) // self.sb.fsize))
            addr = yield from bmap.bmap_alloc(self, ip, 0, nfrags)
            meta = yield from self.metacache.install_new(
                addr, encoded.ljust(self.sb.bsize, b"\x00"))
            yield from self.meta_write(meta)
            self.stats.incr("slow_symlinks")
        yield from self.write_inode(ip, sync=True)
        yield from dirops.enter(self, dir_vn.inode, name, ino)
        return vn

    def readlink_inode(self, ip: Inode) -> Generator[Any, Any, str]:
        """The symlink's target string."""
        if not ip.is_symlink:
            raise InvalidArgumentError("not a symlink")
        what = f"symlink target of inode {ip.ino}"
        if is_fast_symlink(ip):
            return decode_name(unpack_fast_symlink(ip), what)
        meta = yield from self.metacache.bread(ip.direct[0])
        return decode_name(bytes(meta.data[:ip.size]), what)

    def readlink(self, path: str) -> Generator[Any, Any, str]:
        vn = yield from self.namei(path, follow=False)
        return (yield from self.readlink_inode(vn.inode))

    @staticmethod
    def _split(path: str) -> list[str]:
        if not path.startswith("/"):
            raise InvalidArgumentError(f"path must be absolute: {path!r}")
        return [p for p in path.split("/") if p]

    def _dir_and_name(self, path: str) -> Generator[Any, Any, tuple[UfsVnode, str]]:
        parts = self._split(path)
        if not parts:
            raise InvalidArgumentError("path names the root")
        dir_vn = yield from self.namei("/" + "/".join(parts[:-1]))
        if not dir_vn.inode.is_dir:
            raise NotADirectoryError_(path)
        return dir_vn, parts[-1]

    # -- file operations -----------------------------------------------------------------------
    def create(self, path: str, mode: int = IFREG | 0o644
               ) -> Generator[Any, Any, UfsVnode]:
        """Create a regular file; inode and directory written synchronously."""
        dir_vn, name = yield from self._dir_and_name(path)
        existing = yield from dirops.lookup(self, dir_vn.inode, name)
        if existing is not None:
            raise FileExistsError_(path)
        ino = yield from self.allocator.alloc_inode(
            self.sb.cg_of_inode(dir_vn.inode.ino), mode
        )
        vn = self._incore(ino, Dinode(mode=mode, nlink=1))
        yield from self.write_inode(vn.inode, sync=True)
        yield from dirops.enter(self, dir_vn.inode, name, ino)
        self.stats.incr("creates")
        return vn

    def mkdir(self, path: str, mode: int = IFDIR | 0o755
              ) -> Generator[Any, Any, UfsVnode]:
        """Create a directory with '.' and '..'."""
        dir_vn, name = yield from self._dir_and_name(path)
        parent = dir_vn.inode
        existing = yield from dirops.lookup(self, parent, name)
        if existing is not None:
            raise FileExistsError_(path)
        ino = yield from self.allocator.alloc_inode(
            self.sb.cg_of_inode(parent.ino), mode
        )
        vn = self._incore(ino, Dinode(mode=mode, nlink=2))
        ip = vn.inode
        # First block with . and ..
        addr = yield from bmap.bmap_alloc(self, ip, 0, self.sb.frag)
        block = bytearray(empty_dirblock(self.sb.bsize))
        block[0:12] = pack_dirent(ino, ".", 12)
        block[12:DIRBLKSIZ] = pack_dirent(parent.ino, "..", DIRBLKSIZ - 12)
        meta = yield from self.metacache.install_new(addr, bytes(block))
        yield from self.meta_write(meta)
        ip.size = self.sb.bsize
        yield from self.write_inode(ip, sync=True)
        yield from dirops.enter(self, parent, name, ino)
        parent.nlink += 1
        yield from self.write_inode(parent, sync=True)
        self.stats.incr("mkdirs")
        return vn

    def link(self, existing: str, new_path: str) -> Generator[Any, Any, None]:
        """Create a hard link (link(2)): same inode, one more name."""
        vn = yield from self.namei(existing)
        ip = vn.inode
        if ip.is_dir:
            raise IsADirectoryError_("cannot hard-link directories")
        dir_vn, name = yield from self._dir_and_name(new_path)
        clash = yield from dirops.lookup(self, dir_vn.inode, name)
        if clash is not None:
            raise FileExistsError_(new_path)
        ip.nlink += 1
        yield from self.write_inode(ip, sync=True)
        yield from dirops.enter(self, dir_vn.inode, name, ip.ino)
        self.stats.incr("links")

    def unlink(self, path: str) -> Generator[Any, Any, None]:
        """Remove a file: directory entry, pages, blocks, inode."""
        dir_vn, name = yield from self._dir_and_name(path)
        ino = yield from dirops.lookup(self, dir_vn.inode, name)
        if ino is None:
            raise FileNotFoundError_(path)
        vn = yield from self.iget(ino)
        if vn.inode.is_dir:
            raise IsADirectoryError_(path)
        yield from dirops.remove(self, dir_vn.inode, name)
        if (yield from self._drop_link(vn)):
            self.stats.incr("unlinks")

    def _drop_link(self, vn: UfsVnode) -> Generator[Any, Any, bool]:
        """One name fewer; True when it was the last and the inode is gone."""
        ip = vn.inode
        ip.nlink -= 1
        if ip.nlink > 0:
            yield from self.write_inode(ip, sync=True)
            return False
        yield from self._destroy_inode(vn)
        return True

    def _destroy_inode(self, vn: UfsVnode) -> Generator[Any, Any, None]:
        """Last link gone: let go of the bytes (every cached page, every
        block), then write the dead inode once and free it."""
        ip = vn.inode
        yield from vn._free_contents()
        was_dir = ip.is_dir
        ip.mode = ip.nlink = 0
        yield from self.write_inode(ip, sync=True)
        self.allocator.free_inode(ip.ino, was_dir=was_dir)
        self._vnodes.pop(ip.ino, None)

    def rename(self, old_path: str, new_path: str
               ) -> Generator[Any, Any, None]:
        """Rename a regular file or symlink (directories unsupported).

        4.3BSD-style link-then-unlink ordering: the link count is bumped
        durably first, the new name entered, then the old name removed —
        no crash point leaves the file reachable by neither name (though a
        displaced target's old contents are gone once its entry is
        removed, as with the real non-atomic UFS rename).
        """
        src_dir, src_name = yield from self._dir_and_name(old_path)
        ino = yield from dirops.lookup(self, src_dir.inode, src_name)
        if ino is None:
            raise FileNotFoundError_(old_path)
        vn = yield from self.iget(ino)
        ip = vn.inode
        if ip.is_dir:
            raise IsADirectoryError_("directory rename is not supported")
        dst_dir, dst_name = yield from self._dir_and_name(new_path)
        existing = yield from dirops.lookup(self, dst_dir.inode, dst_name)
        if existing == ino:
            return
        target_vn = None
        if existing is not None:
            target_vn = yield from self.iget(existing)
            if target_vn.inode.is_dir:
                raise IsADirectoryError_(new_path)
            yield from dirops.remove(self, dst_dir.inode, dst_name)
        ip.nlink += 1
        yield from self.write_inode(ip, sync=True)
        yield from dirops.enter(self, dst_dir.inode, dst_name, ino)
        yield from dirops.remove(self, src_dir.inode, src_name)
        ip.nlink -= 1
        yield from self.write_inode(ip, sync=True)
        if target_vn is not None:
            yield from self._drop_link(target_vn)
        self.stats.incr("renames")

    def rmdir(self, path: str) -> Generator[Any, Any, None]:
        dir_vn, name = yield from self._dir_and_name(path)
        parent = dir_vn.inode
        ino = yield from dirops.lookup(self, parent, name)
        if ino is None:
            raise FileNotFoundError_(path)
        vn = yield from self.iget(ino)
        ip = vn.inode
        if not ip.is_dir:
            raise NotADirectoryError_(path)
        empty = yield from dirops.is_empty(self, ip)
        if not empty:
            raise DirectoryNotEmptyError(path)
        yield from dirops.remove(self, parent, name)
        parent.nlink -= 1
        yield from self.write_inode(parent, sync=True)
        yield from self._destroy_inode(vn)
        self.stats.incr("rmdirs")

    def readdir(self, path: str) -> Generator[Any, Any, list[tuple[str, int]]]:
        vn = yield from self.namei(path)
        if not vn.inode.is_dir:
            raise NotADirectoryError_(path)
        return (yield from dirops.entries(self, vn.inode))

    # -- the sanitizer's checks of the mount's own books ------------------------
    def check_page_coherency(self, point: str,
                             fail: Callable[..., None]) -> None:
        """Every directory view a cached buffer carries equals a decode of
        the bytes it was built on (``dir_views``), and every clean, valid,
        unlocked page of a regular file equals its fragments on disk,
        resolved through the block pointers bmap uses."""
        self._check_dir_views(point, fail)
        disk = self.driver.disk
        sb = self.sb

        def pointer_block(addr_block: int) -> "bytes | bytearray":
            # Resolving a pointer costs no simulated I/O and moves nothing
            # in the LRU: the buffer cache's copy if it has one (``peek``),
            # else the raw store — the bytes bmap would read, in the same
            # precedence.  read_through: on a disk with a volatile write
            # cache the authoritative copy may still sit in its buffer.
            meta = self.metacache.peek(addr_block)
            if meta is not None:
                return meta.data
            return disk.read_through(sb.fsb_to_sector(addr_block),
                                     sb.bsize // 512)

        for vn in self.vnodes():
            ip = vn.inode
            if not ip.is_reg:
                continue
            for page in self.pagecache.vnode_pages(vn):
                if page.dirty or page.locked or not page.valid:
                    continue  # only clean, settled pages promise coherency
                if page.offset >= ip.size:
                    continue
                lbn = page.offset // sb.bsize
                nbytes = min(ip.blksize(lbn), ip.size - page.offset)
                addr = resolve_lbn(ip, lbn, sb.bsize, pointer_block)
                if addr == bmap.HOLE:
                    if any(page.data[:nbytes]):
                        fail("page_coherency",
                             f"at {point}: inode {ip.ino} offset "
                             f"{page.offset}: clean page over a hole holds "
                             "non-zero bytes")
                    continue
                nsectors = -(-nbytes // 512)
                ondisk = disk.read_through(sb.fsb_to_sector(addr), nsectors)
                if bytes(page.data[:nbytes]) != ondisk[:nbytes]:
                    fail("page_coherency",
                         f"at {point}: inode {ip.ino} offset {page.offset}: "
                         f"clean page differs from disk at fragment {addr} "
                         "(a write was lost or mis-addressed)")

    def _check_dir_views(self, point: str, fail: Callable[..., None]) -> None:
        """Each view's records, free slots and record lengths included, its
        live count and its first-wins name index, against the one decoder:
        the incremental updates of create and unlink are checked here."""
        for meta in self.metacache.buffers():
            view = meta.view
            if view is None:
                continue
            decoded = dir_records(view.image)
            live = [(name, ino) for _, ino, _, name in decoded if ino]
            if (view.records != decoded or view.live != len(live)
                    or view.index != dict(reversed(live))):
                fail("dir_views",
                     f"at {point}: the directory view of block "
                     f"{meta.frag_addr} disagrees with a decode of the bytes "
                     "it was built on (an incremental update went wrong)")

    def check_allocator(self, point: str, deep: bool,
                        fail: Callable[..., None]) -> None:
        """The in-memory group bitmaps agree with the group counters and
        the superblock totals, and every fragment an active inode points
        at is allocated; ``deep`` runs fsck's walkers read-only over the
        on-disk bytes, which must come back clean."""
        sb = self.sb
        total_nbfree = total_nffree = 0
        for cg in self.cgs:
            nbfree, nffree = cg.free_counts(*sb.cg_data_range(cg.cgx), sb.frag)
            if nbfree != cg.nbfree or nffree != cg.nffree:
                fail("allocator",
                     f"at {point}: group {cg.cgx} counters say "
                     f"nbfree={cg.nbfree} nffree={cg.nffree} but its bitmap "
                     f"shows {nbfree}/{nffree}")
            total_nbfree += cg.nbfree
            total_nffree += cg.nffree
        if total_nbfree != sb.cs_nbfree or total_nffree != sb.cs_nffree:
            fail("allocator",
                 f"at {point}: superblock totals nbfree={sb.cs_nbfree} "
                 f"nffree={sb.cs_nffree} != group sums "
                 f"{total_nbfree}/{total_nffree}")
        # A free-but-claimed fragment is a lost-data bug.
        for ip in self.inodes():
            if ip.nlink <= 0:
                continue
            if is_fast_symlink(ip):
                continue  # its direct[] holds target bytes, not fragments
            claims = [a for a in ip.direct[:NDADDR] if a != bmap.HOLE]
            claims += [a for a in (ip.indirect, ip.dindirect)
                       if a != bmap.HOLE]
            for addr in claims:
                cgx = addr // sb.fpg
                if self.cgs[cgx].frag_is_free(addr - sb.cgbase(cgx)):
                    fail("allocator",
                         f"at {point}: inode {ip.ino} claims fragment {addr} "
                         f"but group {cgx}'s bitmap marks it free")
        if not deep:
            return
        report = fsck(self.driver.disk.store)
        if not report.clean:
            fail("allocator",
                 f"at {point}: on-disk walk found {len(report.findings)} "
                 f"problem(s); first: {report.findings[0]}")
