"""The bench orchestrator and the gate.

Pins the two acceptance properties: same-seed BENCH documents are
byte-identical (metrics snapshot and attribution included), and the gate —
the committed bytes of a document, checked by ``report``'s
:func:`~repro.bench.report.changed_documents` — passes an untouched copy
while failing, by name, on anything else.  There is no tolerance: a faster
run fails as a slower one does.  The gate tests run on a tmp copy of the
committed ``BENCH_baseline.json`` and simulate nothing.
"""

import copy
import json
import re
import shutil
from pathlib import Path

import pytest

from repro.bench.report import changed_documents
from repro.obs.bench import (
    BENCH_SCHEMA, bench_document, canonical_json, diff_documents,
    document_id, run_bench,
)

_BENCH_KWARGS = dict(configs="A", file_mb=1, random_ops=32)
ROOT = Path(__file__).resolve().parents[2]
BASELINE = "BENCH_baseline.json"
COMMITTED = json.loads((ROOT / BASELINE).read_text())


@pytest.fixture(scope="module")
def document():
    return run_bench(**_BENCH_KWARGS)


@pytest.fixture
def gate(tmp_path):
    """The gate over a checkout holding the committed baseline, for a run
    that produced ``results`` (and ``run``, the committed one by
    default)."""
    shutil.copy(ROOT / BASELINE, tmp_path)

    def check(results, run=COMMITTED["run"]):
        return changed_documents(tmp_path, {BASELINE: (run, results)})

    return check


def test_document_shape(document):
    assert document["schema"] == BENCH_SCHEMA
    assert document["run"]["configs"] == "A"
    result = document["results"]["A"]
    assert set(result["rates"]) == {"FSR", "FSU", "FSW", "FRR", "FRU"}
    assert all(rate > 0 for rate in result["rates"].values())
    assert "requests" in result["metrics"]
    assert "disk.driver" in result["metrics"]
    assert "read" in result["attribution"]
    assert document["id"] == document_id(document)


def test_same_seed_runs_are_byte_identical(document):
    again = run_bench(**_BENCH_KWARGS)
    assert canonical_json(again) == canonical_json(document)
    # The acceptance criterion calls out these two sections by name.
    assert (canonical_json(again["results"]["A"]["metrics"])
            == canonical_json(document["results"]["A"]["metrics"]))
    assert (canonical_json(again["results"]["A"]["attribution"])
            == canonical_json(document["results"]["A"]["attribution"]))


def test_different_seed_changes_the_id(document):
    other = run_bench(configs="A", file_mb=1, random_ops=32, seed=7)
    assert other["id"] != document["id"]


def test_gate_passes_against_identical_baseline(gate):
    assert gate(copy.deepcopy(COMMITTED["results"])) == []


def test_gate_names_a_10_percent_fsr_drop(gate):
    results = copy.deepcopy(COMMITTED["results"])
    results["A"]["rates"]["FSR"] *= 0.9
    (line,) = gate(results)  # a rate moves no attribution share
    assert re.fullmatch(r"BENCH_baseline\.json: A/FSR: 1474\.5 -> 1327\.1 "
                        r"KB/s \(-10\.0%\)", line), line


def test_gate_fails_on_injected_20_percent_slowdown(gate):
    for scale, pct in ((0.8, "-20.0%"), (1.25, "+25.0%")):  # faster fails too
        results = copy.deepcopy(COMMITTED["results"])
        for result in results.values():
            for phase in result["rates"]:
                result["rates"][phase] *= scale
        lines = gate(results)
        assert [line.split(": ")[1] for line in lines] == [
            f"{c}/{p}" for c in "AC" for p in sorted(results[c]["rates"])]
        assert all(line.endswith(f"({pct})") for line in lines)


def test_gate_flags_attribution_share_blowup(gate):
    results = copy.deepcopy(COMMITTED["results"])
    # Reads suddenly spend a big extra chunk queueing.
    row = results["A"]["attribution"]["read"]
    extra = sum(r["total"] for r in results["A"]["attribution"].values())
    row["categories"]["queue_wait"] += extra
    row["total"] += extra
    lines = gate(results)
    assert any(line.startswith("BENCH_baseline.json: A/attribution/"
                               "queue_wait: ") for line in lines), lines


def test_gate_refuses_mismatched_run_parameters(gate):
    lines = gate(COMMITTED["results"], {**COMMITTED["run"], "file_mb": 16})
    assert lines == [f"BENCH_baseline.json: run parameters differ: "
                     f"{COMMITTED['run']!r} != "
                     f"{ {**COMMITTED['run'], 'file_mb': 16}!r}"]


def test_gate_refuses_foreign_schema(tmp_path):
    foreign = {**COMMITTED, "schema": "repro-bench/v0"}
    (tmp_path / BASELINE).write_text(canonical_json(foreign))
    lines = changed_documents(
        tmp_path, {BASELINE: (COMMITTED["run"], COMMITTED["results"])})
    assert lines == ["BENCH_baseline.json: schema: 'repro-bench/v0' != "
                     "'repro-bench/v1'"]


def test_gate_names_the_ids_when_nothing_it_compares_moved(gate):
    """A counter moved but no rate or share did: the bytes still gate."""
    results = copy.deepcopy(COMMITTED["results"])
    results["C"]["metrics"]["requests"]["ios"] += 1
    fresh = bench_document(COMMITTED["run"], results)["id"]
    assert gate(results) == [
        f"BENCH_baseline.json: id {COMMITTED['id']} -> {fresh}"]


def test_diff_documents(document):
    assert diff_documents(document, copy.deepcopy(document)) == []
    slower = copy.deepcopy(document)
    slower["results"]["A"]["rates"]["FSR"] *= 0.5
    lines = diff_documents(document, slower)
    assert any("A/FSR" in line and "-50.0%" in line for line in lines)
    missing = copy.deepcopy(document)
    del missing["results"]["A"]
    assert any("present in only one" in line
               for line in diff_documents(document, missing))


def test_diff_and_gate_read_a_sweep_document(document, tmp_path):
    """``BENCH_volume.json`` / ``BENCH_pipeline.json`` key their cells by
    layout or scheduler instead of by configuration; the differ and the
    gate read them as they read the baseline."""
    cell = document["results"]["A"]
    run = {"benchmark": "volume", **document["run"]}
    before = bench_document(run, {"single": cell,
                                  "stripe:2": copy.deepcopy(cell)})
    after = copy.deepcopy(before)
    after["results"]["stripe:2"]["rates"]["FSW"] *= 0.8
    assert diff_documents(before, copy.deepcopy(before)) == []
    lines = diff_documents(before, after)
    assert len(lines) == 1
    assert "stripe:2/FSW" in lines[0] and "-20.0%" in lines[0]
    (tmp_path / "BENCH_sweep.json").write_text(canonical_json(before))
    assert changed_documents(tmp_path, {
        "BENCH_sweep.json": (run, before["results"])}) == []
    (line,) = changed_documents(tmp_path, {
        "BENCH_sweep.json": (run, after["results"])})
    assert line.startswith("BENCH_sweep.json: stripe:2/FSW: ")
