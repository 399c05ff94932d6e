"""The UFS vnode: the VFS face of an inode."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from repro.errors import InvalidArgumentError
from repro.ufs import bmap, io
from repro.vfs.vnode import PutFlags, RW, Vnode, VnodeType

if TYPE_CHECKING:  # pragma: no cover
    from repro.ufs.inode import Inode
    from repro.ufs.mount import UfsMount
    from repro.vm.page import Page


class UfsVnode(Vnode):
    """A UFS file as the kernel sees it."""

    def __init__(self, mount: "UfsMount", inode: "Inode"):
        vtype = VnodeType.DIRECTORY if inode.is_dir else VnodeType.REGULAR
        super().__init__(vtype)
        self.mount = mount
        self.inode = inode

    @property
    def size(self) -> int:
        return self.inode.size

    def rdwr(self, rw: RW, offset: int, payload: "bytes | int",
             req: "Any | None" = None) -> Generator[Any, Any, "bytes | int"]:
        return (yield from io.ufs_rdwr(self, rw, offset, payload, req=req))

    def getpage(self, offset: int, rw: RW = RW.READ,
                req: "Any | None" = None) -> Generator[Any, Any, "Page"]:
        return (yield from io.ufs_getpage(self, offset, rw, req=req))

    def putpage(self, offset: int, length: int, flags: PutFlags,
                req: "Any | None" = None) -> Generator[Any, Any, None]:
        yield from io.ufs_putpage(self, offset, length, flags, req=req)

    def bmap(self, lbn: int) -> Generator[Any, Any, tuple[int, int]]:
        """The paper's bmap: a fragment address and up to maxcontig blocks
        contiguous with it."""
        return (yield from bmap.bmap_read(self.mount, self.inode, lbn,
                                          self.inode.cluster_blocks))

    def allocate_backing(self, offset: int) -> Generator[Any, Any, None]:
        """Ensure the block at ``offset`` has backing store (the write-fault
        half of the UFS_HOLE discipline for mapped writes)."""
        ip = self.inode
        sb = self.mount.sb
        if offset >= ip.size:
            raise InvalidArgumentError("mapped write past end of file")
        lbn = offset // sb.bsize
        yield from bmap.bmap_alloc(self.mount, ip, lbn,
                                   io._frags_for(sb, lbn, ip.size))
        ip.inline_data = None  # a mapped store bypasses rdwr's invalidation

    def fsync(self, req: "Any | None" = None) -> Generator[Any, Any, None]:
        """Flush data pages, then the inode, synchronously.

        Durability contract (volatile write caches): the data must be on
        the media *before* the inode that points at it — otherwise a crash
        can leave a durable inode referencing fragments whose contents
        never left the drive's buffer (the tail-relocation hazard).  Hence
        flush between data and inode, and flush again before acknowledging
        so the inode itself (and any B_ORDER barrier it rode in on) is
        durable when fsync returns.
        """
        if self.inode.size > 0:
            yield from io.ufs_putpage(self, 0, self.inode.size, PutFlags(),
                                      req=req)
            yield from self.mount.flush_disk(req=req)
        yield from self.mount.write_inode(self.inode, sync=True)
        yield from self.mount.flush_disk(req=req)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<UfsVnode ino={self.inode.ino} size={self.inode.size}>"
