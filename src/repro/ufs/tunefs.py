"""tunefs: re-tune an existing file system without reformatting.

This is the administrative half of the paper's claim: because the on-disk
format never changed, a stock 4.1 file system becomes a clustered one by
flipping two superblock fields — "previously, when rotdelay was zero,
maxcontig had no meaning, but now it always indicates cluster size."
Existing data is untouched (and stays readable); only future allocation
and I/O policy change.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import InvalidArgumentError
from repro.ufs.ondisk import SBLOCK, SBLOCK_SECTORS, Superblock

if TYPE_CHECKING:  # pragma: no cover
    from repro.disk.store import DiskStore


def tunefs(store: "DiskStore", rotdelay_ms: float | None = None,
           maxcontig: int | None = None,
           minfree_pct: int | None = None,
           checksums: bool | None = None) -> Superblock:
    """Adjust tunable superblock fields in place; returns the new superblock.

    Offline tool (run against an unmounted store), like the real one.
    ``checksums=True`` retrofits an integrity region into the device-tail
    slack past the data area (stamping everything currently written) —
    possible only when mkfs's block rounding left enough; ``False``
    forgets an existing region.
    """
    from repro.integrity.checksum import IntegrityRegion

    sb = Superblock.unpack(store.read(SBLOCK, SBLOCK_SECTORS))
    if rotdelay_ms is not None:
        if rotdelay_ms < 0:
            raise InvalidArgumentError("rotdelay must be >= 0")
        sb.rotdelay_ms = rotdelay_ms
    if maxcontig is not None:
        if maxcontig < 1:
            raise InvalidArgumentError("maxcontig must be >= 1")
        sb.maxcontig = maxcontig
    if minfree_pct is not None:
        if not 0 <= minfree_pct < 50:
            raise InvalidArgumentError("minfree must be in [0, 50)")
        sb.minfree = minfree_pct
    store.write(SBLOCK, sb.pack())
    region = IntegrityRegion.find(store)
    if checksums is True and region is None:
        # create() raises InvalidArgumentError if the slack is too small.
        region = IntegrityRegion.create(store, sb)
        region.stamp_all()
    elif checksums is False and region is not None:
        region.erase()
        region = None
    elif region is not None:
        # The superblock rewrite above must keep its record fresh.
        region.stamp_range(SBLOCK, sb.pack())
    return sb
