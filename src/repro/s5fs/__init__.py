"""S5FS: a simplified System V file system, for the related-work comparison.

The paper compares its UFS clustering against Peacock's CounterPoint fast
file system work, which started from the System V file system.  The
differences the paper enumerates are structural, so reproducing the
comparison needs a real (if reduced) S5FS:

* a **LIFO free-list allocator** "that gets scrambled as the file system
  ages" — fresh file systems allocate contiguously, aged ones do not;
* an old-style **fixed-size buffer cache** with ``bread``/``bwrite``/
  ``bdwrite`` — no unified page cache;
* small (1 KB) blocks, 64-byte dinodes, 16-byte directory entries
  (14-character names), a flat root directory (subdirectories are outside
  the comparison's scope);
* optional **mbread/mbwrite clustering** in the style Peacock added:
  contiguous runs are read/written as one request when the free-list order
  happens to have allocated them contiguously.

It is a file system of the machine: ``s5_mkfs(system.store)`` on a
``System`` built with no UFS, then ``S5FileSystem(system)`` mounts itself as
``system.mount`` and ``Proc(system)`` drives it; its counters are
``system.metrics``' ``s5fs`` and ``s5fs.metacache``.
"""

from repro.s5fs.check import S5CheckReport, s5check
from repro.s5fs.fs import S5FileSystem, s5_mkfs
from repro.s5fs.ondisk import S5Params, S5Superblock

__all__ = ["S5CheckReport", "S5FileSystem", "S5Params", "S5Superblock",
           "s5_mkfs", "s5check"]
