"""mkfs: build a UFS file system on a (simulated) disk.

mkfs is an offline tool: it writes through the :class:`~repro.disk.DiskStore`
data plane directly, taking no simulated time (the paper never benchmarks
mkfs).  Everything it writes is real packed bytes that ``mount`` and
``fsck`` re-read.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import InvalidArgumentError
from repro.ufs.ondisk import (
    CG_MAGIC, DINODE_SIZE, DIRBLKSIZ, IFDIR, INODES_PER_BLOCK_ALIGN, ROOT_INO,
    SUPERBLOCK_MAGIC, CylinderGroup, Dinode, Superblock, empty_dirblock,
    pack_dirent,
)
from repro.ufs.params import FsParams

if TYPE_CHECKING:  # pragma: no cover
    from repro.disk.geometry import DiskGeometry
    from repro.disk.store import DiskStore


def _write_frags(store: "DiskStore", params: FsParams, frag_addr: int,
                 data: bytes) -> None:
    sector = params.fsb_to_sector(frag_addr)
    if len(data) % 512:
        data = data.ljust((len(data) + 511) & ~511, b"\x00")
    store.write(sector, data)


def compute_superblock(geometry: "DiskGeometry", params: FsParams,
                       total_sectors: "int | None" = None) -> Superblock:
    """Lay out the file system for the given disk.

    ``total_sectors`` overrides the device size — mkfs uses it to hold
    back the tail sectors an integrity region needs.
    """
    frag_sectors = params.fsize // 512
    usable = geometry.total_sectors if total_sectors is None else total_sectors
    total_frags = usable // frag_sectors
    spc = geometry.heads * geometry.sectors_per_track_at(0)
    # Fragments per group, rounded down to a whole block so group data
    # areas stay block aligned.
    fpg = (params.cpg * spc // frag_sectors) // params.frag * params.frag
    if fpg <= 0:
        raise InvalidArgumentError("cylinder group smaller than one block")
    ncg = total_frags // fpg
    if ncg < 1:
        raise InvalidArgumentError("disk too small for one cylinder group")
    # Inodes per group, rounded up to fill whole inode blocks.
    raw_ipg = max(1, (fpg * params.fsize) // params.nbpi)
    ipg = -(-raw_ipg // INODES_PER_BLOCK_ALIGN) * INODES_PER_BLOCK_ALIGN
    sb = Superblock(
        magic=SUPERBLOCK_MAGIC,
        bsize=params.bsize,
        fsize=params.fsize,
        nsect=geometry.sectors_per_track_at(0),
        ntrak=geometry.heads,
        ncyl=geometry.cylinders,
        cpg=params.cpg,
        fpg=fpg,
        ipg=ipg,
        ncg=ncg,
        minfree=params.minfree_pct,
        maxcontig=params.maxcontig,
        rotdelay_ms=params.rotdelay_ms,
        rps=int(round(geometry.rpm / 60)),
        total_frags=ncg * fpg,
    )
    # Sanity: metadata must fit inside each group.
    for cgx in (0, ncg - 1):
        if sb.cg_data_frag(cgx) >= sb.cg_end_frag(cgx):
            raise InvalidArgumentError(
                "group metadata leaves no data space; increase cpg or nbpi"
            )
    return sb


def _build_group(sb: Superblock, cgx: int) -> CylinderGroup:
    """An initial cylinder group: everything free except metadata."""
    frag_bytes = (sb.fpg + 7) // 8
    inode_bytes = (sb.ipg + 7) // 8
    cg = CylinderGroup(
        magic=CG_MAGIC, cgx=cgx, ndblk=sb.cg_end_frag(cgx) - sb.cgbase(cgx),
        nbfree=0, nffree=0, nifree=0, ndir=0, frag_rotor=0, inode_rotor=0,
        frag_bitmap=bytearray(frag_bytes), inode_bitmap=bytearray(inode_bytes),
    )
    base = sb.cgbase(cgx)
    data_start = sb.cg_data_frag(cgx) - base
    cg.fill_free(cg.frag_bitmap, data_start, cg.ndblk)
    # Count free blocks (the data area is block aligned by construction);
    # the tail frags not forming a whole block are counted in nffree.
    frag = sb.frag
    whole = (cg.ndblk - data_start) // frag
    cg.nbfree = whole
    cg.nffree = (cg.ndblk - data_start) - whole * frag
    cg.fill_free(cg.inode_bitmap, 0, sb.ipg)
    cg.nifree = sb.ipg
    if cgx == 0:
        # Inodes 0 and 1 are reserved (historical); root is inode 2.
        cg.set_inode(0, False)
        cg.set_inode(1, False)
        cg.nifree -= 2
    return cg


def mkfs(store: "DiskStore", geometry: "DiskGeometry",
         params: FsParams | None = None) -> Superblock:
    """Create the file system; returns the superblock as written."""
    return mkfs_region(store, geometry, params)[0]


def mkfs_region(store: "DiskStore", geometry: "DiskGeometry",
                params: FsParams | None = None):
    """:func:`mkfs`, returning ``(superblock, integrity region or None)``.

    The root directory (inode 2) is created with ``.`` and ``..`` entries
    in the first data block of group 0.
    """
    params = params if params is not None else FsParams()
    total_sectors = None
    if params.checksums:
        # Two passes: size the region for a full-device layout, then lay
        # the file system out on what is left.  The reservation only
        # shrinks with the data area, so one shrink always converges.
        from repro.integrity.checksum import IntegrityRegion

        probe = compute_superblock(geometry, params)
        reserve = IntegrityRegion.sectors_needed(
            probe.total_frags, probe.ncg, probe.bsize)
        total_sectors = geometry.total_sectors - reserve
        if total_sectors <= 0:
            raise InvalidArgumentError("disk too small for an integrity region")
    sb = compute_superblock(geometry, params, total_sectors=total_sectors)
    groups = [_build_group(sb, cgx) for cgx in range(sb.ncg)]

    # Root directory: one block in group 0's data area.
    root_block = sb.cg_data_frag(0)
    cg0 = groups[0]
    cg0.mark_frags(root_block - sb.cgbase(0), sb.frag, free=False, base=0)
    cg0.nbfree -= 1
    cg0.set_inode(ROOT_INO, False)
    cg0.nifree -= 1
    cg0.ndir += 1

    dirblock = bytearray(empty_dirblock(sb.bsize))
    dirblock[0:12] = pack_dirent(ROOT_INO, ".", 12)
    dirblock[12:DIRBLKSIZ] = pack_dirent(ROOT_INO, "..", DIRBLKSIZ - 12)
    _write_frags(store, params, root_block, bytes(dirblock))

    root = Dinode(
        mode=IFDIR | 0o755, nlink=2, size=sb.bsize,
        direct=(root_block,) + (0,) * 11, blocks=sb.frag,
    )
    inode_frag, byte_off = sb.inode_location(ROOT_INO)
    inode_block = bytearray(sb.bsize)
    inode_block[byte_off:byte_off + DINODE_SIZE] = root.pack()
    _write_frags(store, params, inode_frag, bytes(inode_block))

    # Totals.
    sb.cs_ndir = sum(g.ndir for g in groups)
    sb.cs_nbfree = sum(g.nbfree for g in groups)
    sb.cs_nifree = sum(g.nifree for g in groups)
    sb.cs_nffree = sum(g.nffree for g in groups)

    # Write groups and superblock (block 1, past the boot block).
    for cgx, cg in enumerate(groups):
        _write_frags(store, params, sb.cg_header_frag(cgx), cg.pack(sb))
    _write_frags(store, params, sb.frag, sb.pack())

    region = None
    if params.checksums:
        from repro.integrity.checksum import IntegrityRegion

        region = IntegrityRegion.create(store, sb)
        region.stamp_all()
    else:
        # A reused store may carry a stale region from a previous life;
        # forget it, or its table would indict every fresh write.
        stale = store.integrity_region()
        if stale is not None:
            stale.erase()
    return sb, region
