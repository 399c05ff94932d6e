"""The paper's figures 10-12, and the report of the experiment table
(``python -m repro report``).

:func:`run_experiments` runs rows of :mod:`repro.bench.experiments` into
one ``repro-bench/v1`` document, ``BENCH_experiments.json``, and
:func:`publish` writes it with the documents those rows own; the committed
bytes of those are the gate, and :func:`changed_documents` says what moved
in one that a run no longer reproduces.  Everything
else here is a pure function of that document: a verdict per cell
(:func:`holds`, :func:`failures`, :func:`outside_paper`), a row as
markdown (:func:`render_block`),
RESULTS.md (:func:`render_results`) and EXPERIMENTS.md's generated blocks
(:func:`splice`) — so tier-1 checks the docs against the committed JSON
without simulating anything."""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Any

from repro.obs.bench import (
    bench_document, canonical_json, diff_documents, write_document,
    write_text,
)

DOCUMENT = "BENCH_experiments.json"

#: The paper's figure 10, for side-by-side comparison (KB/second).
PAPER_FIGURE_10 = {
    "A": {"FSR": 1610, "FSU": 1364, "FSW": 1359, "FRR": 383, "FRU": 452},
    "B": {"FSR": 805, "FSU": 799, "FSW": 790, "FRR": 369, "FRU": 431},
    "C": {"FSR": 749, "FSU": 783, "FSW": 784, "FRR": 366, "FRU": 428},
    "D": {"FSR": 749, "FSU": 722, "FSW": 718, "FRR": 370, "FRU": 545},
}

#: The paper's figure 11 (transfer rate ratios).
PAPER_FIGURE_11 = {
    "A/B": {"FSR": 2.00, "FSU": 1.71, "FSW": 1.72, "FRR": 1.04, "FRU": 1.05},
    "A/C": {"FSR": 2.15, "FSU": 1.74, "FSW": 1.73, "FRR": 1.05, "FRU": 1.06},
    "A/D": {"FSR": 2.15, "FSU": 1.89, "FSW": 1.89, "FRR": 1.04, "FRU": 0.83},
}

#: The paper's figure 12 (CPU seconds, 16 MB mmap read).
PAPER_FIGURE_12 = {"new": 2.6, "old": 3.4}


# -- the experiments document ---------------------------------------------------

def fmt(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.0f}" if abs(value) >= 100 else f"{value:.3g}"
    return str(value)


def holds(cell: dict) -> bool:
    lo, hi = cell["band"]
    try:
        return lo <= cell["value"] <= hi
    except TypeError:  # a string where a number belongs, or the reverse
        return False


def band_text(band) -> str:
    if band is None:  # a sweep run that is not its row's own invocation
        return "-"
    lo, hi = band
    return "exact" if lo == hi else f"{fmt(lo)} – {fmt(hi)}"


def failures(document: dict) -> "list[str]":
    """One line per cell outside its band: row, cell, value, band, reason."""
    return [f"{row_id} / {c['name']}: {fmt(c['value'])} outside "
            f"{band_text(c['band'])} ({c['reason']})"
            for row_id, entry in document["results"].items()
            for c in entry["cells"] if not holds(c)]


def outside_paper(document: dict) -> "list[tuple[str, str]]":
    """``(row, cell)`` of each cell whose paper value lies outside its band
    (bands are centred on ours: a gap to the paper no verdict reports)."""
    return [(row_id, c["name"])
            for row_id, entry in document["results"].items()
            for c in entry["cells"]
            if c["paper"] is not None and not holds({**c, "value": c["paper"]})]


def fidelity_line(document: dict) -> str:
    with_paper = sum(c["paper"] is not None for entry in
                     document["results"].values() for c in entry["cells"])
    return (f"paper values outside their band: "
            f"{len(outside_paper(document))} of {with_paper}")


def render_block(entry: dict, verdicts: bool = False) -> str:
    """A row as a markdown table under its workload; with ``verdicts`` a
    last column says whether each cell holds its band."""
    head = "| cell | ours | paper | band |" + (" verdict |" if verdicts else "")
    lines = [f"*{entry['workload']}*", "", head,
             "|---" * (5 if verdicts else 4) + "|"]
    for c in entry["cells"]:
        lines.append(f"| {c['name']} | {fmt(c['value'])} | {fmt(c['paper'])} "
                     f"| {band_text(c['band'])} |"
                     + (f" {'ok' if holds(c) else 'OUT'} |" if verdicts
                        else ""))
    return "\n".join(lines) + "\n"


def render_results(document: dict) -> str:
    """RESULTS.md: every row of the document, in the order it ran."""
    parts = ["# RESULTS (generated)\n\n"
             "Every measured number of the reproduction, one table per "
             "experiment, rendered by `python -m repro report` from "
             "`BENCH_experiments.json`. EXPERIMENTS.md reads them against "
             f"the paper.\n\n{fidelity_line(document)}.\n"]
    for row_id in document["run"]["rows"]:
        entry = document["results"][row_id]
        parts.append(f"\n## {row_id} — {entry['paper_section']}\n\n"
                     + render_block(entry))
    return "".join(parts)


BLOCK = re.compile(r"(<!-- experiment (\S+) -->\n).*?(<!-- /experiment -->)",
                   re.S)


def splice(text: str, document: dict) -> str:
    """``text`` with every generated block re-rendered from ``document``."""
    return BLOCK.sub(lambda m: m.group(1) + render_block(
        document["results"][m.group(2)]) + m.group(3), text)


def entry(row, values: dict) -> dict:
    """Row ``row``'s entry in the experiments document: the cells of
    ``values`` the row declares, in the row's order."""
    return {"paper_section": row.paper_section, "workload": row.workload,
            "cells": [{"name": c.name, "value": values[c.name],
                       "paper": c.paper, "band": list(c.band),
                       "reason": c.reason}
                      for c in row.cells if c.name in values]}


def measure(row, sections: dict) -> dict:
    """Run one :class:`~repro.bench.experiments.Experiment`: its entry in
    the experiments document."""
    values = row.run(sections)
    if set(values) != {cell.name for cell in row.cells}:
        raise ValueError(f"{row.id}: run measured {sorted(values)}, the row "
                         f"declares {[cell.name for cell in row.cells]}")
    return entry(row, values)


def run_experiments(rows):
    """Run ``rows`` in order, printing each with its verdicts: the
    experiments document, and ``{file: (run, results)}`` of the documents
    those rows own."""
    results, owned = {}, {}
    for row in rows:
        sections: dict = {}
        results[row.id] = measure(row, sections)
        print(f"{row.id} — {row.paper_section}\n"
              + render_block(results[row.id], verdicts=True))
        if row.document:
            owned[row.document[0]] = (row.document[1], sections)
    return bench_document(
        {"benchmark": "experiments", "rows": [row.id for row in rows]},
        results), owned


def changed_documents(root: Path, owned: dict) -> "list[str]":
    """``diff_documents(committed, fresh)`` for each document of ``owned``
    whose bytes are not its file's under ``root``, a line per difference
    prefixed by the file name — or the two ids, when the bytes differ in
    nothing that compares; empty when every file is byte-identical."""
    lines = []
    for name, (run, results) in owned.items():
        fresh = bench_document(run, results)
        path = root / name
        text = path.read_text() if path.is_file() else "{}"
        if text != canonical_json(fresh):
            committed = json.loads(text)
            lines += [f"{name}: {line}" for line in diff_documents(
                committed, fresh) or [f"id {committed.get('id')} -> "
                                      f"{fresh['id']}"]]
    return lines


def publish(root: Path, document: dict, owned: dict) -> None:
    """Write the experiments document, the documents its rows own,
    RESULTS.md and EXPERIMENTS.md's blocks under ``root``."""
    write_document(root / DOCUMENT, document["run"], document["results"])
    for name, (run, results) in owned.items():
        write_document(root / name, run, results)
    committed = json.loads(canonical_json(document))
    write_text(root / "RESULTS.md", render_results(committed))
    experiments = root / "EXPERIMENTS.md"
    write_text(experiments, splice(experiments.read_text(), committed))
