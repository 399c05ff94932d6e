"""The virtual file system (VFS) layer.

The VFS interface lets the kernel drive any file system implementation
through ``rdwr``/``getpage``/``putpage`` — the three entry points the paper
cares about — without knowing the implementation.  UFS (:mod:`repro.ufs`)
and the NFS client implement all three, S5FS (:mod:`repro.s5fs`) only
``rdwr`` (no page cache); ``bmap``, the paper's extent interface, is on
both local ones.  A machine mounts one as ``system.mount``, and
``Proc(system)`` drives whichever it is; ``specfs``
(:class:`~repro.vfs.specfs.RawDiskVnode`) provides the raw-disk escape hatch
the paper lists (and rejects) as a performance alternative.
"""

from repro.vfs.vnode import PutFlags, RW, StatFs, Vfs, Vnode, VnodeType
from repro.vfs.specfs import RawDiskVnode

__all__ = ["PutFlags", "RW", "RawDiskVnode", "StatFs", "Vfs", "Vnode", "VnodeType"]
