"""The network fault plan: a deterministic, seeded schedule of wire trouble.

The disk-side :class:`~repro.faults.plan.FaultPlan` made the storage stack
answer for a flaky drive; :class:`NetFaultPlan` does the same for the NFS
path.  It is injected into :class:`repro.nfs.net.Network`, which consults
``decide`` exactly once per message send, in send order.  Because the
engine is deterministic, the plan's random draws happen in a reproducible
sequence: the same seed and workload produce a byte-identical fault
history, which is what makes network campaigns replayable.

The fault taxonomy (all per-message unless noted):

* **drops** — the datagram vanishes; the client's retransmission timer is
  the only recovery;
* **duplicates** — the datagram is delivered twice (a retransmitting
  bridge, a confused switch); the server's duplicate-request cache and the
  client's xid matching must suppress the copy;
* **reorders** — the datagram is held briefly after leaving the wire, so a
  later send overtakes it;
* **payload corruption** — the bytes arrive damaged; checksums on both
  ends must reject the message (it then behaves like a drop);
* **latency spikes** — a long hold (a congested router), stressing the
  adaptive retransmission timeout;
* **link partitions** — scheduled ``(start, end)`` windows during which
  every message in both directions is dropped.

A server that loses power is not a wire fault: the ``crashpoints`` preset
``nfs`` enumerates the crash states of the server's drive instead.

Scheduled one-shot faults (``scheduled=[(time, direction, kind), ...]``)
fire on the first matching message at/after their trigger time, mirroring
the disk plan's ``transient_at`` idiom; they are what deterministic unit
tests are built from.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable

from repro.sim.stats import StatSet

#: Message directions, as Network names them.
UP = "up"       # client -> server
DOWN = "down"   # server -> client
ANY = "any"

_KINDS = ("drop", "duplicate", "corrupt", "reorder", "spike")


@dataclass(frozen=True)
class NetDecision:
    """What the plan decided for one message.

    At most one of ``drop``/``duplicate``/``corrupt`` is set; ``delay`` may
    accompany none of them (a reorder/spike is just a held delivery).
    """

    drop: bool = False
    duplicate: bool = False
    corrupt: bool = False
    delay: float = 0.0


class NetFaultPlan:
    """A seeded, deterministic schedule of network faults.

    All probabilities are per *message* (a retransmitted request rolls the
    dice again, as a real lossy wire would).  ``decide`` must be called
    exactly once per message, in send order, for determinism to hold.
    Setting :attr:`disabled` stops all injection (campaigns do this before
    their verification phase: "after faults clear").
    """

    def __init__(self, seed: int = 0,
                 drop_p: float = 0.0,
                 duplicate_p: float = 0.0,
                 corrupt_p: float = 0.0,
                 reorder_p: float = 0.0,
                 reorder_delay: float = 0.005,
                 spike_p: float = 0.0,
                 spike_delay: float = 0.25,
                 partitions: Iterable[tuple[float, float]] = (),
                 scheduled: Iterable[tuple[float, str, str]] = ()):
        for name, p in (("drop_p", drop_p), ("duplicate_p", duplicate_p),
                        ("corrupt_p", corrupt_p), ("reorder_p", reorder_p),
                        ("spike_p", spike_p)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability")
        if drop_p + duplicate_p + corrupt_p + reorder_p + spike_p > 1.0:
            raise ValueError("fault probabilities must sum to <= 1")
        if reorder_delay < 0 or spike_delay < 0:
            raise ValueError("delays must be >= 0")
        self.seed = seed
        self._rng = random.Random(seed)
        self.drop_p = drop_p
        self.duplicate_p = duplicate_p
        self.corrupt_p = corrupt_p
        self.reorder_p = reorder_p
        self.reorder_delay = reorder_delay
        self.spike_p = spike_p
        self.spike_delay = spike_delay
        self.partitions = sorted(tuple(w) for w in partitions)
        for start, end in self.partitions:
            if end <= start:
                raise ValueError(f"empty partition window ({start}, {end})")
        self._scheduled = sorted(scheduled)
        for _, direction, kind in self._scheduled:
            if direction not in (UP, DOWN, ANY):
                raise ValueError(f"bad scheduled direction {direction!r}")
            if kind not in _KINDS:
                raise ValueError(f"bad scheduled fault kind {kind!r}")
        self.disabled = False
        self.stats = StatSet("netfaults")

    # -- the injection decision (Network._transfer calls this) ---------------
    def decide(self, direction: str, now: float) -> "NetDecision | None":
        """What, if anything, goes wrong with this message."""
        if self.disabled:
            return None
        if self.link_down(now):
            self.stats.incr("partition_drops")
            return NetDecision(drop=True)
        hit = self._pop_scheduled(direction, now)
        if hit is None:
            u = self._rng.random()
            if u < self.drop_p:
                hit = "drop"
            elif u < self.drop_p + self.duplicate_p:
                hit = "duplicate"
            elif u < self.drop_p + self.duplicate_p + self.corrupt_p:
                hit = "corrupt"
            elif u < (self.drop_p + self.duplicate_p + self.corrupt_p
                      + self.reorder_p):
                hit = "reorder"
            elif u < (self.drop_p + self.duplicate_p + self.corrupt_p
                      + self.reorder_p + self.spike_p):
                hit = "spike"
        if hit is None:
            return None
        self.stats.incr(f"{hit}s")
        if hit == "drop":
            return NetDecision(drop=True)
        if hit == "duplicate":
            return NetDecision(duplicate=True)
        if hit == "corrupt":
            return NetDecision(corrupt=True)
        if hit == "reorder":
            return NetDecision(delay=self.reorder_delay)
        return NetDecision(delay=self.spike_delay)

    def _pop_scheduled(self, direction: str, now: float) -> "str | None":
        """Consume the first matching scheduled one-shot at/after its time."""
        for i, (when, want, kind) in enumerate(self._scheduled):
            if when > now:
                return None
            if want == ANY or want == direction:
                del self._scheduled[i]
                return kind
        return None

    # -- link partitions ------------------------------------------------------
    def link_down(self, now: float) -> bool:
        """True while ``now`` falls inside a partition window."""
        return any(start <= now < end for start, end in self.partitions)
