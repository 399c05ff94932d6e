"""The simulated CPU.

Process-context kernel work contends for the single CPU through a FIFO
:class:`~repro.sim.resources.Resource`; interrupt-context work is modelled as
preemptive (it delays the I/O completion path and is charged to the ledger,
but does not queue).  A per-tag ledger lets benchmarks report where the CPU
went — the breakdown behind the paper's figure 12.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.cpu.costs import CostTable
from repro.sim.events import Event
from repro.sim.resources import Resource

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.metrics import MetricsRegistry
    from repro.sim.engine import Engine


class Cpu:
    """A single simulated CPU with cost accounting.

    Use ``yield from cpu.work("getpage", cost_seconds)`` from process
    context.  Interrupt handlers call :meth:`interrupt_charge`, which returns
    the handler duration for the caller to fold into its completion timing.
    """

    def __init__(self, engine: "Engine", metrics: "MetricsRegistry",
                 costs: CostTable | None = None):
        self.engine = engine
        self.costs = costs if costs is not None else CostTable()
        self.resource = Resource(engine, capacity=1, name="cpu")
        self.ledger = metrics.counters("cpu")

    # -- process context ---------------------------------------------------
    def work(self, tag: str, seconds: float) -> Iterable[Event]:
        """Occupy the CPU for ``seconds``, charged to ``tag``.

        Not a generator itself: it books the charge and hands the caller's
        ``yield from`` whatever the resource returns — its generator, one
        frame deep, or nothing at all when the charge needed no waiting
        (:meth:`Resource.use`) or was free.
        """
        if seconds < 0:
            raise ValueError("CPU work duration must be >= 0")
        if seconds == 0:
            return ()
        self.ledger.incr(tag, seconds)
        return self.resource.use(seconds)

    def copy(self, tag: str, nbytes: int) -> Iterable[Event]:
        """Charge a kernel<->user copy of ``nbytes`` to ``tag``."""
        return self.work(tag, self.costs.copy_cost(nbytes))

    # -- interrupt context ---------------------------------------------------
    def interrupt_charge(self, tag: str, seconds: float) -> float:
        """Account for interrupt-handler time; returns the delay to apply.

        Interrupts preempt whatever is running, so they do not queue on the
        CPU resource; the time still appears in the ledger and in
        :attr:`busy_time` so utilisation reports include it.
        """
        if seconds < 0:
            raise ValueError("interrupt duration must be >= 0")
        self.ledger.incr(tag, seconds)
        self.resource.busy_time += seconds
        return seconds

    # -- reporting -----------------------------------------------------------
    @property
    def system_time(self) -> float:
        """Total simulated CPU seconds consumed so far."""
        return sum(self.ledger.as_dict().values())

    def utilization(self, elapsed: float | None = None) -> float:
        """CPU utilisation over ``elapsed`` seconds (default: since t=0)."""
        total = self.engine.now if elapsed is None else elapsed
        if total <= 0:
            return 0.0
        return min(1.0, self.system_time / total)

    def breakdown(self) -> dict[str, float]:
        """Per-tag CPU seconds, sorted by key."""
        return self.ledger.as_dict()

    def reset_ledger(self) -> None:
        """Zero the accounting (keeps calibration and the resource state)."""
        self.ledger.reset()
        self.resource.busy_time = 0.0
        self.resource.service_count = 0
