"""Simulated-time telemetry series over the metrics registry.

The metrics registry (:mod:`repro.obs.metrics`) renders the machine at
*one* instant; a performance question is usually about a *curve* —
does write throughput oscillate with the throttle, does the scrub
daemon's pass dent foreground queue depth, when does free memory hit
the low-water mark?  :class:`TelemetryRecorder` answers those by
sampling selected registry namespaces on a fixed **simulated-time**
cadence (an :meth:`~repro.sim.engine.Engine.every` daemon timer), so
the series is as deterministic as the run itself and costs zero
simulated time — sampling reads live counters; it never schedules
work, charges CPU, or perturbs the workload.

Per instrument shape, each sample records:

* **counter sets** (``StatSet``) — the windowed *delta* of every key
  since the previous sample (a throughput series, not a climbing total);
* **histograms** — the windowed delta's ``count`` and ``mean`` (via
  ``Histogram.snapshot()/since()``);
* **gauges** (``TimeWeighted``) — the instantaneous ``value`` plus the
  window's exact time-weighted ``avg`` (via ``TimeWeighted.area()``),
  because a queue that is busy *between* sample instants would
  otherwise alias to zero;
* **callables** — numeric leaves of the returned dict (one level of
  nesting flattened as ``outer.inner``), sampled instantaneously.

Samples land in plain row dicts; :meth:`~TelemetryRecorder.series`
reads one ``(namespace, key)`` out as an aligned list, and
:meth:`~TelemetryRecorder.to_json` exports the whole run for plotting
or assertions (write-throttle oscillation, scrub interference windows).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.sim.stats import Histogram, StatSet, TimeWeighted

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.system import System

#: Schema tag on the exported document.
SERIES_SCHEMA = "repro-series/v1"


def _flatten_callable(rendered: dict) -> dict[str, float]:
    flat: dict[str, float] = {}
    for key, value in rendered.items():
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            flat[key] = float(value)
        elif isinstance(value, dict):
            for inner, leaf in value.items():
                if isinstance(leaf, bool):
                    continue
                if isinstance(leaf, (int, float)):
                    flat[f"{key}.{inner}"] = float(leaf)
    return flat


class TelemetryRecorder:
    """Samples metrics namespaces on a fixed simulated cadence.

    ``namespaces=None`` means every namespace registered at
    :meth:`start` time.  The timer is a daemon: it never keeps the
    engine alive, so workloads still run to idle and the series simply
    covers the instants where simulated work existed.
    """

    def __init__(self, system: "System", interval: float = 0.010,
                 namespaces: "list[str] | None" = None):
        if interval <= 0:
            raise ValueError("sampling interval must be > 0")
        self.system = system
        self.interval = interval
        self._wanted = list(namespaces) if namespaces is not None else None
        self.times: list[float] = []
        #: One row per tick: ``{namespace: {key: value}}``.
        self.rows: list[dict[str, dict[str, float]]] = []
        self.samples_taken = 0
        self.running = False
        self._timer = None
        self._sources: dict[str, Any] = {}
        # Previous-window state, per namespace, keyed by shape.
        self._prev: dict[str, Any] = {}

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "TelemetryRecorder":
        """Resolve namespaces, take the time-zero baseline, start the
        timer; returns self for chaining."""
        if self.running:
            return self
        registry = self.system.metrics
        names = (self._wanted if self._wanted is not None
                 else registry.namespaces())
        unknown = [name for name in names if name not in registry]
        if unknown:
            raise ValueError(f"unknown metrics namespace {unknown[0]!r} (one "
                             f"of {', '.join(registry.namespaces())})")
        for name in names:
            self._sources[name] = registry.get(name)
        for name, source in self._sources.items():
            self._prev[name] = self._baseline(source)
        self.running = True
        self._timer = self.system.engine.every(self.interval, self._sample)
        return self

    def stop(self) -> None:
        """Stop sampling; the collected series stays readable."""
        if not self.running:
            return
        self.running = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    # -- sampling ----------------------------------------------------------
    @staticmethod
    def _baseline(source: Any) -> Any:
        if isinstance(source, StatSet):
            return dict(source.as_dict())
        if isinstance(source, Histogram):
            return source.snapshot()
        if isinstance(source, TimeWeighted):
            return source.area()
        return None  # callables sample instantaneously

    def _sample(self) -> None:
        engine = self.system.engine
        row: dict[str, dict[str, float]] = {}
        for name, source in self._sources.items():
            if isinstance(source, StatSet):
                current = source.as_dict()
                prev = self._prev[name]
                row[name] = {
                    key: value - prev.get(key, 0.0)
                    for key, value in current.items()
                    if value - prev.get(key, 0.0)
                }
                self._prev[name] = dict(current)
            elif isinstance(source, Histogram):
                delta = source.since(self._prev[name])
                row[name] = {"count": float(delta.count),
                             "mean": delta.mean}
                self._prev[name] = source.snapshot()
            elif isinstance(source, TimeWeighted):
                area = source.area()
                row[name] = {
                    "value": source.value,
                    "avg": (area - self._prev[name]) / self.interval,
                }
                self._prev[name] = area
            else:
                row[name] = _flatten_callable(source())
        self.times.append(engine.now)
        self.rows.append(row)
        self.samples_taken += 1

    # -- reading -----------------------------------------------------------
    def series(self, namespace: str, key: str) -> "list[tuple[float, float]]":
        """One ``(time, value)`` series; ticks without the key read 0.0."""
        return [
            (t, row.get(namespace, {}).get(key, 0.0))
            for t, row in zip(self.times, self.rows)
        ]

    def keys(self, namespace: str) -> "list[str]":
        """Every key that ever appeared under ``namespace``, sorted."""
        seen: set[str] = set()
        for row in self.rows:
            seen.update(row.get(namespace, ()))
        return sorted(seen)

    def to_json(self) -> dict:
        """The whole run as one JSON-ready document."""
        return {
            "schema": SERIES_SCHEMA,
            "interval": self.interval,
            "namespaces": sorted(self._sources),
            "samples": self.samples_taken,
            "times": list(self.times),
            "rows": self.rows,
        }

    def render(self, namespace: str, key: str, width: int = 60) -> str:
        """One series as a crude text sparkline (for bench output)."""
        series = self.series(namespace, key)
        if not series:
            return f"{namespace}.{key}: (no samples)"
        values = [v for _, v in series]
        lo, hi = min(values), max(values)
        span = hi - lo
        glyphs = " .:-=+*#%@"
        if len(values) > width:
            # Downsample deterministically: mean per even-sized chunk.
            chunks = [values[i * len(values) // width:
                             (i + 1) * len(values) // width] or [0.0]
                      for i in range(width)]
            values = [sum(c) / len(c) for c in chunks]
        body = "".join(
            glyphs[int((v - lo) / span * (len(glyphs) - 1))] if span > 0
            else glyphs[0]
            for v in values)
        return (f"{namespace}.{key} [{lo:g}..{hi:g}] "
                f"n={len(series)} |{body}|")


__all__ = ["SERIES_SCHEMA", "TelemetryRecorder"]
