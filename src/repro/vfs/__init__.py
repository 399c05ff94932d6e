"""The virtual file system (VFS) layer.

The VFS interface lets the kernel drive any file system implementation
through ``rdwr``/``getpage``/``putpage`` — the three entry points the paper
cares about — without knowing the implementation.  UFS (:mod:`repro.ufs`)
and the NFS client implement all three, S5FS (:mod:`repro.s5fs`) only
``rdwr`` (no page cache); ``Proc(system, mount=fs)`` drives any; ``specfs``
(:class:`~repro.vfs.specfs.RawDiskVnode`) provides the raw-disk escape hatch
the paper lists (and rejects) as a performance alternative.
"""

from repro.vfs.vnode import PutFlags, RW, Vfs, Vnode, VnodeType
from repro.vfs.specfs import RawDiskVnode

__all__ = ["PutFlags", "RW", "RawDiskVnode", "Vfs", "Vnode", "VnodeType"]
