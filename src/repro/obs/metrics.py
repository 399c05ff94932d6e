"""The unified metrics registry: every layer reports into one namespace.

Before this module each layer kept its own bag of numbers — the driver's
retry counters, the page cache's hit/miss counts, the write cache's
destage tally, the scrubber's progress, each volume member's I/O — and
every benchmark that wanted a cross-layer view had to know where each bag
lived.  :class:`MetricsRegistry` is the single place they all report
into: one instance per :class:`~repro.kernel.system.System`, holding
*references* to the live instruments under stable dotted namespaces, so
``snapshot()`` renders the whole machine as one plain dict.

Three instrument shapes are understood (all from :mod:`repro.sim.stats`,
so the hot paths keep the exact objects they already had):

* **counter sets** — :class:`StatSet`: monotonic named counts;
* **gauges** — :class:`TimeWeighted`: piecewise-constant quantities with
  time-weighted averages (queue depth, free memory);
* **histograms** — :class:`Histogram`: latency/size distributions,
  rendered as their ``summary()``.

A namespace may also hold a zero-argument callable returning a plain
dict — the escape hatch for dynamic collections (per-request-kind
latency histograms, per-member breakdowns) that cannot be registered as
one object up front.

Each layer creates its instruments through the registry's factories
(:meth:`~MetricsRegistry.counters`, :meth:`~MetricsRegistry.gauge`,
:meth:`~MetricsRegistry.histogram`) on the line where it is built, so a
namespace is written once, never on the hot path; reading a metric costs
exactly what it cost before this module existed.  :meth:`register` is
left for what is born outside the machine: the per-kind latency callable
and tests' own sources.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.sim.stats import Histogram, StatSet, TimeWeighted

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine

#: The shapes a namespace can hold.
MetricSource = "StatSet | Histogram | TimeWeighted | Callable[[], dict]"


class MetricsRegistry:
    """Namespaced view over every layer's live instruments.

    One registry per machine (``system.metrics``).  Namespaces are dotted
    paths (``disk.m0.driver``, ``vm.pagecache``, ``ufs.throttle``); the
    snapshot is a flat ``{namespace: {key: value}}`` dict, sorted by
    namespace, so two same-seed runs serialize byte-identically.
    """

    def __init__(self, engine: "Engine"):
        self.engine = engine
        self._sources: dict[str, Any] = {}

    # -- registration ------------------------------------------------------
    def register(self, namespace: str, source: Any) -> Any:
        """Attach a live instrument (or dict-returning callable) at
        ``namespace``.  A duplicate namespace is a wiring bug."""
        if not namespace:
            raise ValueError("namespace must be non-empty")
        if namespace in self._sources:
            raise ValueError(f"metrics namespace {namespace!r} already "
                             "registered")
        if not (isinstance(source, (StatSet, Histogram, TimeWeighted))
                or callable(source)):
            raise TypeError(
                f"unsupported metrics source {type(source).__name__} "
                f"for namespace {namespace!r}")
        self._sources[namespace] = source
        return source

    # -- instrument factories ---------------------------------------------
    def counters(self, namespace: str) -> StatSet:
        """Create (or fetch) a :class:`StatSet` owned by the registry.  With
        :meth:`gauge` / :meth:`histogram`, the factories every layer binds
        its instruments through: the first claimant of a namespace creates
        it, a later one (a second mount, a second scrubber) continues it."""
        existing = self._sources.get(namespace)
        if isinstance(existing, StatSet):
            return existing
        return self.register(namespace, StatSet(namespace))

    def gauge(self, namespace: str, initial: float = 0.0) -> TimeWeighted:
        """Create (or fetch) a time-weighted gauge at ``namespace``."""
        existing = self._sources.get(namespace)
        if isinstance(existing, TimeWeighted):
            return existing
        return self.register(namespace, TimeWeighted(self.engine, initial))

    def histogram(self, namespace: str) -> Histogram:
        """Create (or fetch) a histogram at ``namespace``."""
        existing = self._sources.get(namespace)
        if isinstance(existing, Histogram):
            return existing
        return self.register(namespace, Histogram(namespace))

    # -- reading -----------------------------------------------------------
    def namespaces(self) -> list[str]:
        """All registered namespaces, sorted."""
        return sorted(self._sources)

    def __contains__(self, namespace: str) -> bool:
        return namespace in self._sources

    def get(self, namespace: str) -> Any:
        """The live source object at ``namespace`` (KeyError if absent)."""
        return self._sources[namespace]

    @staticmethod
    def _render(source: Any) -> dict[str, Any]:
        if isinstance(source, StatSet):
            return source.as_dict()
        if isinstance(source, Histogram):
            return source.summary()
        if isinstance(source, TimeWeighted):
            return {
                "value": source.value,
                "avg": source.average(),
                "min": source.minimum,
                "max": source.maximum,
            }
        rendered = source()
        if not isinstance(rendered, dict):
            raise TypeError("callable metrics source must return a dict")
        return rendered

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """The whole machine as one plain dict, sorted by namespace.

        Every value derives from simulated time and seeded workloads, so
        two same-seed runs snapshot byte-identically at their quiesce
        points — the property the bench determinism check pins.
        """
        return {ns: self._render(self._sources[ns])
                for ns in sorted(self._sources)}


__all__ = ["MetricsRegistry"]
