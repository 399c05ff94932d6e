"""Benchmark documents: every ``BENCH_*.json`` and the JSON the CLI writes.

:func:`run_bench` runs IObench over a set of figure 9 configurations with
the tracer on for every phase and folds three views into one cell each:

* headline **rates** (KB/s per phase) and CPU utilization — the numbers
  the paper argues about;
* the full **metrics snapshot** from the system's
  :class:`~repro.obs.metrics.MetricsRegistry` — every layer's counters in
  one namespaced dict;
* the **layer attribution** table from :mod:`repro.obs.attrib` — where
  simulated time went, per request kind.

A document is ``schema`` + ``run`` + ``results`` + ``id``, and this module
is the only writer of one (:func:`write_document`) and of any other JSON
or text the CLI emits (:func:`write_json`, :func:`write_text`).  Nothing in
it reads the wall clock, so two runs with the same parameters serialize
byte-identically, and the ``id`` — a content hash over the canonical JSON
form — makes "same bench" one string comparison.  The committed bytes are
the gate: ``python -m repro report`` rewrites every document its rows own,
and :func:`diff_documents` says what moved when one is not the committed
file.
"""

from __future__ import annotations

import hashlib
import json
import sys
from typing import Any, Callable

BENCH_SCHEMA = "repro-bench/v1"


def canonical_json(document: dict) -> str:
    """The one serialization used for files, ids, and byte comparisons."""
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def document_id(document: dict) -> str:
    """Content hash over the canonical form, ``id`` field excluded."""
    body = {k: v for k, v in document.items() if k != "id"}
    return hashlib.sha256(canonical_json(body).encode()).hexdigest()


def write_text(path: str, text: str,
               say: Callable[[str], None] = print) -> None:
    """Write ``text`` to ``path``; ``-`` means stdout, which the text then
    owns (callers route human lines to stderr)."""
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w") as fh:
        fh.write(text)
    say(f"wrote {path}")


def write_json(path: str, document: dict,
               say: Callable[[str], None] = print) -> None:
    write_text(path, canonical_json(document), say)


def bench_document(run: dict, results: dict) -> dict:
    """``run`` (what was asked for) and ``results`` (one cell per config,
    layout, scheduler or section) as a ``schema`` + ``id`` stamped
    document."""
    document = {"schema": BENCH_SCHEMA, "run": run, "results": results}
    document["id"] = document_id(document)
    return document


def write_document(path: str, run: dict, results: dict,
                   say: Callable[[str], None] = print) -> None:
    """Write the whole of a ``BENCH_*.json``: what was there before goes,
    so a section nobody passes any more does not live on in the file."""
    write_json(path, bench_document(run, results), say)


def run_bench(configs: str = "AC", file_mb: int = 4, random_ops: int = 512,
              seed: int = 1991, scheduler: "str | None" = None,
              layout: "str | None" = None) -> dict:
    """Run the bench matrix; return its (deterministic) BENCH document."""
    from repro.bench.iobench import IObench
    from repro.kernel.config import SystemConfig
    from repro.obs.attrib import attribution_table
    from repro.units import MB

    names = [name.upper() for name in configs]
    results: dict[str, Any] = {}
    for name in names:
        bench = IObench(SystemConfig.preset(name, scheduler, layout),
                        file_size=file_mb * MB,
                        random_ops=random_ops, seed=seed, trace_phase="*")
        result = bench.run()
        system = bench.system
        assert system is not None
        results[name] = {
            "rates": dict(result.rates),
            "cpu_util": dict(result.cpu_util),
            "layout": system.volume.describe(),
            "scheduler": system.driver.scheduler_name,
            "metrics": system.metrics.snapshot(),
            "attribution": attribution_table(system.tracer),
        }
    return bench_document({
        "configs": "".join(names),
        "file_mb": file_mb,
        "random_ops": random_ops,
        "seed": seed,
        "scheduler": scheduler,
        "layout": layout,
    }, results)


def _shares(result: dict) -> "dict[str, float]":
    """A config's attribution collapsed to per-category time shares."""
    totals: dict[str, float] = {}
    grand = 0.0
    for row in result.get("attribution", {}).values():
        grand += row.get("total", 0.0)
        for category, spent in row.get("categories", {}).items():
            totals[category] = totals.get(category, 0.0) + spent
    if grand <= 0.0:
        return {}
    return {category: spent / grand for category, spent in totals.items()}


def diff_documents(a: dict, b: dict) -> "list[str]":
    """Human-readable differences between two BENCH documents.

    Returns one line per delta (rates as percentages, attribution as
    absolute share points); an empty list means the documents agree on
    every compared quantity.  ``python -m repro report`` prints it for a
    document whose bytes are not the committed file's.
    """
    lines: list[str] = []
    if a.get("schema") != b.get("schema"):
        lines.append(f"schema: {a.get('schema')!r} != {b.get('schema')!r}")
    if a.get("run") != b.get("run"):
        lines.append(f"run parameters differ: {a.get('run')!r} "
                     f"!= {b.get('run')!r}")
    results_a = a.get("results", {})
    results_b = b.get("results", {})
    for name in sorted(results_a.keys() | results_b.keys()):
        ra, rb = results_a.get(name), results_b.get(name)
        if ra is None or rb is None:
            lines.append(f"{name}: present in only one document")
            continue
        rates_a, rates_b = ra.get("rates", {}), rb.get("rates", {})
        for phase in sorted(rates_a.keys() | rates_b.keys()):
            va, vb = rates_a.get(phase), rates_b.get(phase)
            if va is None or vb is None:
                lines.append(f"{name}/{phase}: rate present in only one "
                             "document")
            elif va != vb:
                pct = (vb - va) / va * 100.0 if va else float("inf")
                lines.append(f"{name}/{phase}: {va:.1f} -> {vb:.1f} KB/s "
                             f"({pct:+.1f}%)")
        shares_a, shares_b = _shares(ra), _shares(rb)
        for category in sorted(shares_a.keys() | shares_b.keys()):
            sa = shares_a.get(category, 0.0)
            sb = shares_b.get(category, 0.0)
            if abs(sb - sa) >= 0.005:  # below half a point is noise
                lines.append(f"{name}/attribution/{category}: "
                             f"{sa * 100:.1f}% -> {sb * 100:.1f}% of time")
    return lines


__all__ = ["BENCH_SCHEMA", "bench_document", "canonical_json",
           "diff_documents", "document_id", "run_bench", "write_document",
           "write_json", "write_text"]
