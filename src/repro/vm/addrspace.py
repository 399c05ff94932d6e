"""Address spaces and segments: the paper's figure 1 fault path.

"The address space, associated with a process, is made up of a collection
of segments each of which refers to a portion of a file (vnode)...  The
fault is resolved by traversing the object hierarchy and invoking the
fault handlers for each object type": address space -> segment ->
``getpage`` of the associated file system.

This is the mmap interface the paper's figure 12 benchmark uses.  Mapped
*writes* exercise the UFS_HOLE discipline: a page with no backing store is
mapped read-only, the write fault gives UFS the chance to allocate the
block, and only then does the store proceed — "if the system did not
enforce these rules, a write may appear to succeed but later will find
that there is no more space in the file system."
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from repro.errors import InvalidArgumentError
from repro.vfs.vnode import PutFlags, RW

if TYPE_CHECKING:  # pragma: no cover
    from repro.cpu import Cpu
    from repro.sim.engine import Engine
    from repro.vfs.vnode import Vnode
    from repro.vm.page import Page


class SegmentationFault(Exception):
    """An access outside every segment, or a store to a read-only mapping."""


class Segment:
    """One mapping: [base, base+length) of an address space onto a vnode."""

    def __init__(self, base: int, length: int, vnode: "Vnode",
                 vnode_offset: int, writable: bool):
        self.base = base
        self.length = length
        self.vnode = vnode
        self.vnode_offset = vnode_offset
        self.writable = writable
        self.faults = 0

    @property
    def end(self) -> int:
        return self.base + self.length

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.end

    def vnode_offset_of(self, addr: int, page_size: int) -> int:
        """The page-aligned vnode offset backing ``addr``."""
        rel = addr - self.base
        return self.vnode_offset + (rel // page_size) * page_size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "rw" if self.writable else "ro"
        return (f"<Segment [{self.base:#x}, {self.end:#x}) {mode} "
                f"-> {self.vnode!r}+{self.vnode_offset}>")


class AddressSpace:
    """A process's collection of segments, with the fault dispatcher."""

    #: Where file mappings start (an arbitrary userland-looking base).
    MAP_BASE = 0x1000_0000

    def __init__(self, engine: "Engine", cpu: "Cpu", page_size: int):
        self.engine = engine
        self.cpu = cpu
        self.page_size = page_size
        self.segments: list[Segment] = []

    # -- mapping management ---------------------------------------------------
    def map(self, vnode: "Vnode", length: int, vnode_offset: int = 0,
            writable: bool = False) -> Segment:
        """Map ``length`` bytes of ``vnode`` at the next free address."""
        if length <= 0:
            raise InvalidArgumentError("mapping length must be positive")
        if vnode_offset % self.page_size:
            raise InvalidArgumentError("mapping offset must be page aligned")
        if vnode_offset + length > vnode.size:
            raise InvalidArgumentError("mapping extends past end of file")
        base = max((seg.end for seg in self.segments), default=self.MAP_BASE)
        base = -(-base // self.page_size) * self.page_size
        segment = Segment(base, length, vnode, vnode_offset, writable)
        self.segments.append(segment)
        return segment

    def unmap(self, segment: Segment) -> Generator[Any, Any, None]:
        """Remove a mapping, flushing mapped writes (msync semantics)."""
        if segment not in self.segments:
            raise InvalidArgumentError("segment not mapped")
        if segment.writable:
            yield from self.msync(segment)
        self.segments.remove(segment)

    def msync(self, segment: Segment,
              req: "Any | None" = None) -> Generator[Any, Any, None]:
        """Write the segment's dirty pages back synchronously."""
        yield from segment.vnode.putpage(
            segment.vnode_offset, segment.length, PutFlags(), req=req
        )

    def find(self, addr: int) -> Segment:
        for segment in self.segments:
            if segment.contains(addr):
                return segment
        raise SegmentationFault(f"address {addr:#x} not mapped")

    # -- the fault path -----------------------------------------------------------
    def fault(self, addr: int, rw: RW,
              req: "Any | None" = None) -> Generator[Any, Any, "Page"]:
        """Resolve one fault: find the segment, call the file system."""
        segment = self.find(addr)
        if rw is RW.WRITE and not segment.writable:
            raise SegmentationFault(
                f"store to read-only mapping at {addr:#x}"
            )
        segment.faults += 1
        yield from self.cpu.work("fault", self.cpu.costs.fault)
        offset = segment.vnode_offset_of(addr, self.page_size)
        page = yield from segment.vnode.getpage(offset, rw, req=req)
        if rw is RW.WRITE:
            # The UFS_HOLE rule: a page without backing store is read-only;
            # the write fault is the file system's chance to allocate.
            allocate = getattr(segment.vnode, "allocate_backing", None)
            if allocate is not None:
                yield from allocate(offset)
            page.dirty = True
        page.referenced = True
        return page

    # -- simulated loads and stores --------------------------------------------------
    def read(self, addr: int, count: int,
             req: "Any | None" = None) -> Generator[Any, Any, bytes]:
        """A load of ``count`` bytes (faulting pages in as needed)."""
        if count <= 0:
            raise InvalidArgumentError("count must be positive")
        parts: list[bytes] = []
        remaining = count
        while remaining > 0:
            segment = self.find(addr)
            page = yield from self.fault(addr, RW.READ, req=req)
            offset = segment.vnode_offset_of(addr, self.page_size)
            in_page = (segment.vnode_offset + (addr - segment.base)) - offset
            take = min(self.page_size - in_page, remaining,
                       segment.end - addr)
            yield from self.cpu.copy("copyout", take)
            parts.append(bytes(page.data[in_page:in_page + take]))
            addr += take
            remaining -= take
        return b"".join(parts)

    def write(self, addr: int, data: bytes,
              req: "Any | None" = None) -> Generator[Any, Any, int]:
        """A store of ``data`` (write-faulting pages as needed)."""
        if not data:
            return 0
        written = 0
        while written < len(data):
            segment = self.find(addr)
            page = yield from self.fault(addr, RW.WRITE, req=req)
            offset = segment.vnode_offset_of(addr, self.page_size)
            in_page = (segment.vnode_offset + (addr - segment.base)) - offset
            take = min(self.page_size - in_page, len(data) - written,
                       segment.end - addr)
            yield from self.cpu.copy("copyin", take)
            page.write(in_page, data[written:written + take])
            addr += take
            written += take
        return written
