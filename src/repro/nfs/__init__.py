"""A minimal NFS: the remote file system in the paper's figure 1.

The paper's VM walkthrough maps ``libc.so`` from "a remote NFS file
system" next to a local UFS file — the point of the vnode architecture
being that the kernel drives both through the same interface.  This
package supplies that second, remote file system type:

* :class:`~repro.nfs.net.Network` — a half-duplex-per-direction 1991
  Ethernet (10 Mbit/s, fixed per-RPC latency);
* :class:`~repro.nfs.server.NfsServer` — stateless v2-style handlers
  (LOOKUP/GETATTR/SETATTR/READ/WRITE/CREATE/REMOVE/COMMIT) over a
  server-side :class:`~repro.ufs.UfsMount` with its own CPU and disk;
* :class:`~repro.nfs.client.NfsMount` / ``NfsVnode`` — a client file
  system whose pages live in the *client's* unified page cache, with
  biod-style read-ahead and write-behind.

Because the server runs a real UFS, the paper's clustering operates on
the server disk underneath NFS — remote users are among the "all users of
the file system [who] benefit", up to the point the wire saturates (which
the benchmark shows).
"""

from repro.nfs.client import NfsMount, NfsVnode, RttEstimator
from repro.nfs.net import Delivery, Network
from repro.nfs.server import NfsServer
from repro.nfs.world import build_world

__all__ = ["Delivery", "Network", "NfsMount", "NfsServer", "NfsVnode",
           "RttEstimator", "build_world"]
