"""Lightweight statistics for simulation components.

Every subsystem (disk, VM, UFS) exposes a :class:`StatSet` of named counters
and accumulators; benchmarks read them to build the paper's tables.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine


class StatSet:
    """A named bag of counters (ints) and accumulators (floats).

    Counters and accumulators share a namespace; reading an absent name
    yields zero, so callers never need to pre-register statistics.
    """

    def __init__(self, name: str = "stats"):
        self.name = name
        self._counts: dict[str, float] = defaultdict(float)

    def incr(self, key: str, amount: float = 1) -> None:
        """Add ``amount`` to counter ``key``."""
        self._counts[key] += amount

    def __getitem__(self, key: str) -> float:
        return self._counts.get(key, 0)

    def __contains__(self, key: str) -> bool:
        return key in self._counts

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._counts))

    def as_dict(self) -> dict[str, float]:
        """A plain dict snapshot (sorted by key)."""
        return {k: self._counts[k] for k in sorted(self._counts)}

    def reset(self) -> None:
        """Zero every statistic."""
        self._counts.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v:g}" for k, v in self.as_dict().items())
        return f"<StatSet {self.name}: {inner}>"


class Histogram:
    """A log2-bucketed histogram for latencies and sizes.

    Values land in power-of-two buckets ((2^(i-1), 2^i]); percentiles are
    read back as the upper edge of the bucket holding the requested rank,
    clamped to the observed maximum.  Memory is O(number of distinct
    magnitudes), so a histogram can sit on the driver's hot path.
    """

    def __init__(self, name: str = "hist"):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.minimum: float | None = None
        self.maximum: float | None = None
        self._zeros = 0
        self._buckets: dict[int, int] = defaultdict(int)

    def observe(self, value: float) -> None:
        """Fold one sample in (negative values are clamped to zero)."""
        value = max(0.0, value)
        self.count += 1
        self.total += value
        self.minimum = value if self.minimum is None else min(self.minimum, value)
        self.maximum = value if self.maximum is None else max(self.maximum, value)
        if value == 0.0:
            self._zeros += 1
        else:
            self._buckets[math.ceil(math.log2(value))] += 1

    @property
    def mean(self) -> float:
        # `> 0`, not truthiness: a mismatched snapshot delta can leave a
        # negative count, which must read as empty, not as a negative mean.
        return self.total / self.count if self.count > 0 else 0.0

    def percentile(self, p: float) -> float:
        """Approximate p-th percentile (p in [0, 100]).

        An empty histogram — zero samples, or a degenerate snapshot delta
        with nothing in it — reports 0.0 for every percentile rather than
        indexing into empty buckets.
        """
        if self.count <= 0:
            return 0.0
        rank = max(1, math.ceil(self.count * p / 100.0))
        if rank <= self._zeros:
            return 0.0
        seen = self._zeros
        for idx in sorted(self._buckets):
            seen += self._buckets[idx]
            if seen >= rank:
                upper = 2.0 ** idx
                return min(upper, self.maximum if self.maximum is not None else upper)
        return self.maximum if self.maximum is not None else 0.0

    def summary(self) -> dict[str, float]:
        """count / mean / min / max / p50 / p95 / p99 as a plain dict."""
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.minimum if self.minimum is not None else 0.0,
            "max": self.maximum if self.maximum is not None else 0.0,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }

    # -- snapshot / delta ----------------------------------------------------
    def snapshot(self) -> "HistogramSnapshot":
        """Freeze the current state, for later :meth:`since` deltas.

        The telemetry recorder (:mod:`repro.obs.timeseries`) takes one at
        each window edge and reports ``hist.since(snap)``, so a window
        holds only its own samples, not every earlier window's.
        """
        return HistogramSnapshot(
            count=self.count, total=self.total, zeros=self._zeros,
            buckets=dict(self._buckets),
            minimum=self.minimum, maximum=self.maximum,
        )

    def since(self, snap: "HistogramSnapshot") -> "Histogram":
        """A new histogram holding only the samples observed after ``snap``.

        Counts, totals, and buckets subtract exactly.  min/max cannot be
        recovered from bucket deltas, so they are approximated by the delta
        buckets' edges (clamped to the lifetime maximum); percentiles keep
        their usual bucket-upper-edge resolution.
        """
        delta = Histogram(self.name)
        delta.count = self.count - snap.count
        delta.total = self.total - snap.total
        delta._zeros = self._zeros - snap.zeros
        for idx, n in self._buckets.items():
            d = n - snap.buckets.get(idx, 0)
            if d:
                delta._buckets[idx] = d
        if delta.count <= 0:
            # A snapshot from a different (or reset) histogram subtracts to
            # nonsense; normalize to a genuinely empty delta so summary()
            # and percentile() report clean zeros.
            delta.count = 0
            delta.total = 0.0
            delta._zeros = 0
            delta._buckets.clear()
        if delta.count > 0:
            if delta._zeros > 0:
                delta.minimum = 0.0
            elif delta._buckets:
                delta.minimum = 2.0 ** (min(delta._buckets) - 1)
            if delta._buckets:
                upper = 2.0 ** max(delta._buckets)
                delta.maximum = (min(upper, self.maximum)
                                 if self.maximum is not None else upper)
            else:
                delta.maximum = 0.0
        return delta

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Histogram {self.name}: n={self.count} mean={self.mean:g} "
                f"max={self.maximum}>")


@dataclass(frozen=True)
class HistogramSnapshot:
    """A frozen :class:`Histogram` state (see :meth:`Histogram.snapshot`)."""

    count: int
    total: float
    zeros: int
    buckets: dict[int, int]
    minimum: "float | None"
    maximum: "float | None"


class TimeWeighted:
    """Tracks the time-weighted average of a piecewise-constant quantity.

    Used for e.g. average disk queue depth and average free-memory level.
    """

    def __init__(self, engine: "Engine", initial: float = 0.0):
        self.engine = engine
        self._value = initial
        self._last_change = engine.now
        self._area = 0.0
        self._start = engine.now
        self.minimum = initial
        self.maximum = initial

    @property
    def value(self) -> float:
        """Current value."""
        return self._value

    def set(self, value: float) -> None:
        """Record a change of the tracked quantity at the current time."""
        now = self.engine.now
        self._area += self._value * (now - self._last_change)
        self._value = value
        self._last_change = now
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)

    def add(self, delta: float) -> None:
        """Adjust the tracked quantity by ``delta``."""
        self.set(self._value + delta)

    def average(self) -> float:
        """Time-weighted mean from creation until now."""
        now = self.engine.now
        total = now - self._start
        if total <= 0:
            return self._value
        area = self._area + self._value * (now - self._last_change)
        return area / total

    def area(self) -> float:
        """Cumulative value x time integral up to now.

        Two reads of this bracket a window: ``(a2 - a1) / dt`` is the
        exact time-weighted mean over the window — how the telemetry
        recorder turns one gauge into a per-sample-window average series
        without resetting (and so perturbing) the gauge itself.
        """
        return self._area + self._value * (self.engine.now - self._last_change)
