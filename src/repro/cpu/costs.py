"""Calibrated per-operation CPU costs.

The numbers model a 20 MHz SPARCstation 1 (~12 MIPS) running SunOS 4.1: a
millisecond of simulated CPU corresponds to roughly 12k instructions.  They
are calibrated so that

* the old (un-clustered) system uses roughly half the CPU to stream ~750 KB/s
  through ``read()`` (the paper's motivating measurement), and
* a 16 MB mmap-style fault-driven read costs ~3.4 simulated CPU seconds on
  the old system and ~2.6 s with clustering (paper figure 12).

Only *ratios* between code paths matter for the reproduction; the absolute
scale is inherited from the target machine.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.units import MB, US


@dataclass
class CostTable:
    """CPU cost, in seconds, of each modelled kernel operation."""

    #: read()/write() syscall entry/exit and argument validation.
    syscall: float = 250 * US
    #: Mapping/unmapping one file block into the kernel address space
    #: (seg_map window management in ufs_rdwr).
    segmap: float = 200 * US
    #: Taking and resolving a page fault (trap, address space lookup,
    #: segment fault handler) — excludes the getpage work itself.
    fault: float = 650 * US
    #: ufs_getpage body when the page is found in the page cache.
    getpage_hit: float = 300 * US
    #: Additional ufs_getpage work when the page must be read (page list
    #: setup, buf initialisation) — charged per call, not per page.
    getpage_miss: float = 250 * US
    #: ufs_putpage body per call.
    putpage: float = 200 * US
    #: One bmap() translation using the inode's direct/indirect pointers.
    bmap: float = 120 * US
    #: Extra CPU for walking an indirect block already in memory.
    bmap_indirect: float = 60 * US
    #: Per-page cost of assembling a multi-page cluster I/O (pagelist build).
    cluster_per_page: float = 40 * US
    #: Allocating/freeing one page from the VM free list.
    page_alloc: float = 80 * US
    page_free: float = 60 * US
    #: Driver strategy routine per request (buf setup, queue insert).
    driver_strategy: float = 160 * US
    #: disksort() insertion per request already in the queue scanned.
    disksort_scan: float = 8 * US
    #: Disk completion interrupt handling per request.
    interrupt: float = 120 * US
    #: Pageout daemon cost per page examined by a clock hand.
    pagedaemon_scan: float = 10 * US
    #: Context switch to/from the pageout daemon per wakeup.
    pagedaemon_wakeup: float = 400 * US
    #: Kernel <-> user copy bandwidth in bytes/second (SS1 memory system).
    copy_bandwidth: float = 5.0 * MB
    #: Block allocator work per block allocated (cylinder-group search,
    #: bitmap update).
    alloc_block: float = 300 * US
    #: Fragment-level allocator work.
    alloc_frag: float = 200 * US
    #: Directory lookup per entry scanned.
    dirscan_entry: float = 15 * US
    #: namei per path component (vnode hold/release, hashing).
    namei_component: float = 150 * US
    #: Inode read/update bookkeeping (itimes, locking) per operation.
    inode_update: float = 80 * US
    #: Process context switch (used by the timesharing benchmark).
    context_switch: float = 300 * US
    #: CRC over one fragment (verify on read, stamp on write) when an
    #: integrity region is attached.
    checksum_frag: float = 8 * US

    def copy_cost(self, nbytes: int) -> float:
        """CPU seconds to copy ``nbytes`` between kernel and user space."""
        if nbytes < 0:
            raise ValueError("cannot copy a negative byte count")
        return nbytes / self.copy_bandwidth

    @classmethod
    def free(cls) -> "CostTable":
        """A zero-cost table (infinite CPU) for disk-only experiments."""
        values: dict[str, object] = {}
        for f in fields(cls):
            if f.name == "copy_bandwidth":
                values[f.name] = float("inf")
            else:
                values[f.name] = 0.0
        return cls(**values)  # type: ignore[arg-type]
