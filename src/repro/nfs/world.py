"""Convenience builder: one simulated world with a client and a server."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.kernel.config import SystemConfig
from repro.kernel.system import System
from repro.nfs.client import NfsMount
from repro.nfs.net import ETHERNET_10MBIT, Network
from repro.nfs.server import NfsServer
from repro.units import MS

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.netplan import NetFaultPlan


def build_world(server_config: SystemConfig | None = None,
                client_config: SystemConfig | None = None,
                bandwidth: float = ETHERNET_10MBIT,
                latency: float = 1.0 * MS,
                nfsd_threads: int = 2,
                fault_plan: "NetFaultPlan | None" = None,
                soft: bool = False,
                timeo: float = 1.1,
                retrans: int = 5,
                drc_size: int = 256):
    """Boot a server machine (with a UFS) and a diskless-ish client machine
    on one engine, joined by a network; returns
    ``(client_system, server_system, nfs_mount)``, the mount being the
    client's ``system.mount``.

    ``fault_plan`` (a :class:`~repro.faults.netplan.NetFaultPlan`) makes the
    wire lossy; ``soft``/``timeo``/``retrans`` pick the client's mount
    semantics and ``drc_size`` the server's duplicate-request cache
    capacity.  The server's own crashes are the ``crashpoints`` preset
    ``nfs``, which records this world's server drive.
    """
    server_system = System.booted(
        server_config if server_config is not None else SystemConfig.config_a()
    )
    client_system = System(
        client_config if client_config is not None else SystemConfig(name="client"),
        engine=server_system.engine,
    )
    network = Network(server_system.engine, bandwidth=bandwidth,
                      latency=latency, fault_plan=fault_plan)
    server = NfsServer(server_system.engine, server_system.mount,
                       nfsd_threads=nfsd_threads, drc_size=drc_size)
    mount = NfsMount(server_system.engine, client_system.cpu,
                     client_system.pagecache, network, server,
                     soft=soft, timeo=timeo, retrans=retrans)
    client_system.mount = mount
    client_system.run(mount.activate(), name="nfs-mount")
    return client_system, server_system, mount
