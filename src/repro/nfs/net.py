"""A simulated local-area network (1991 flavour).

One shared medium per direction, modelled as a FIFO resource: a transfer
occupies its direction for ``size / bandwidth`` seconds after a fixed
per-message latency (interface + protocol stack).  10 Mbit/s Ethernet
moves ~1.2 MB/s — notably *slower* than the paper's disk after
clustering, which is exactly the regime the NFS benchmark explores.

The wire can be made to misbehave: an attached
:class:`~repro.faults.netplan.NetFaultPlan` is consulted once per message,
and the resulting :class:`Delivery` tells the RPC layer whether the
message arrived, arrived damaged, arrived twice, or was held (reordered).
The network itself stays dumb — drops are simply never seen again, and it
is the client's retransmission timer and the server's duplicate-request
cache (``repro.nfs.client`` / ``repro.nfs.server``) that turn this lossy
datagram service back into a usable RPC transport.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Generator

from repro.sim.resources import Resource
from repro.sim.stats import StatSet
from repro.units import MS

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.netplan import NetFaultPlan
    from repro.sim.engine import Engine

#: 10 Mbit/s Ethernet, as bytes/second.
ETHERNET_10MBIT = 10_000_000 / 8


@dataclass(frozen=True)
class Delivery:
    """How one message fared on the wire.

    ``delivered`` is False for a drop (including partition windows);
    ``corrupted`` means the bytes arrived but fail their checksum;
    ``duplicated`` means the receiver gets a second copy; ``delayed`` is
    any extra hold the message suffered after leaving the wire (the
    mechanism behind reordering and latency spikes).
    """

    delivered: bool = True
    corrupted: bool = False
    duplicated: bool = False
    delayed: float = 0.0


#: The fault-free outcome, shared to avoid per-message allocation.
_CLEAN = Delivery()


class Network:
    """A bidirectional link between one client and one server."""

    def __init__(self, engine: "Engine", bandwidth: float = ETHERNET_10MBIT,
                 latency: float = 1.0 * MS,
                 fault_plan: "NetFaultPlan | None" = None):
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if latency < 0:
            raise ValueError("latency must be >= 0")
        self.engine = engine
        self.bandwidth = bandwidth
        self.latency = latency
        self.fault_plan = fault_plan
        self._to_server = Resource(engine, capacity=1, name="net.up")
        self._to_client = Resource(engine, capacity=1, name="net.down")
        self.stats = StatSet("network")

    def _transfer(self, direction: Resource, direction_name: str, nbytes: int
                  ) -> Generator[Any, Any, Delivery]:
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        wire_time = nbytes / self.bandwidth
        yield from direction.use(wire_time)
        if self.latency > 0:
            yield from self.engine.sleep(self.latency)
        self.stats.incr("messages")
        self.stats.incr("bytes", nbytes)
        plan = self.fault_plan
        if plan is None:
            return _CLEAN
        decision = plan.decide(direction_name, self.engine.now)
        if decision is None:
            return _CLEAN
        if decision.drop:
            self.stats.incr("dropped")
            return Delivery(delivered=False)
        if decision.delay > 0:
            # Held after releasing the wire, so later sends overtake it.
            self.stats.incr("delayed")
            yield from self.engine.sleep(decision.delay)
        if decision.corrupt:
            self.stats.incr("corrupted")
        if decision.duplicate:
            self.stats.incr("duplicated")
        return Delivery(corrupted=decision.corrupt,
                        duplicated=decision.duplicate,
                        delayed=decision.delay)

    def send_to_server(self, nbytes: int) -> Generator[Any, Any, Delivery]:
        """Occupy the client->server direction for ``nbytes``."""
        return (yield from self._transfer(self._to_server, "up", nbytes))

    def send_to_client(self, nbytes: int) -> Generator[Any, Any, Delivery]:
        """Occupy the server->client direction for ``nbytes``."""
        return (yield from self._transfer(self._to_client, "down", nbytes))
