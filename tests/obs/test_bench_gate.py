"""The bench orchestrator and the perf gate.

Pins the two acceptance properties: same-seed BENCH documents are
byte-identical (metrics snapshot and attribution included), and the gate
passes against an honest baseline while failing on an injected 20%
slowdown.
"""

import copy

import pytest

from repro.obs.bench import (
    BENCH_SCHEMA, bench_document, canonical_json, diff_documents,
    document_id, run_bench,
)
from repro.obs.gate import check_gate

_BENCH_KWARGS = dict(configs="A", file_mb=1, random_ops=32)


@pytest.fixture(scope="module")
def document():
    return run_bench(**_BENCH_KWARGS)


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


def test_gate_passes_against_identical_baseline(document):
    result = check_gate(document, copy.deepcopy(document))
    assert result.ok
    assert result.violations == []
    assert "OK" in result.render()


def test_gate_fails_on_injected_20_percent_slowdown(document):
    # A baseline 25% faster everywhere == current run 20% slower than it.
    baseline = copy.deepcopy(document)
    for result in baseline["results"].values():
        for phase in result["rates"]:
            result["rates"][phase] *= 1.25
    baseline["id"] = document_id(baseline)
    gate = check_gate(document, baseline)
    assert not gate.ok
    kinds = {v.split(":")[0] for v in gate.violations}
    assert kinds == {"A/FSR", "A/FSW"}  # headline phases only
    assert "FAILED" in gate.render()


def test_gate_tolerates_small_regressions(document):
    baseline = copy.deepcopy(document)
    for result in baseline["results"].values():
        for phase in result["rates"]:
            result["rates"][phase] *= 1.05  # current only ~4.8% slower
    gate = check_gate(document, baseline)
    assert gate.ok


def test_gate_flags_attribution_share_blowup(document):
    baseline = copy.deepcopy(document)
    current = copy.deepcopy(document)
    # Current run: reads suddenly spend a big extra chunk queueing.
    row = current["results"]["A"]["attribution"]["read"]
    extra = sum(r["total"] for r
                in current["results"]["A"]["attribution"].values())
    row["categories"]["queue_wait"] += extra
    row["total"] += extra
    gate = check_gate(current, baseline)
    assert not gate.ok
    assert any("queue_wait" in v for v in gate.violations)


def test_gate_refuses_mismatched_run_parameters(document):
    baseline = copy.deepcopy(document)
    baseline["run"]["file_mb"] = 16
    gate = check_gate(document, baseline)
    assert not gate.ok
    assert any("run parameters" in v for v in gate.violations)


def test_gate_refuses_foreign_schema(document):
    baseline = copy.deepcopy(document)
    baseline["schema"] = "repro-bench/v0"
    gate = check_gate(document, baseline)
    assert not gate.ok


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


def test_diff_and_gate_read_a_sweep_document(document):
    """``bench_volume`` / ``bench_pipeline`` key their cells by layout or
    scheduler instead of by configuration; the differ and the gate read
    them as they read the baseline."""
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
    assert check_gate(before, copy.deepcopy(before)).ok
    (violation,) = check_gate(after, before).violations
    assert violation.startswith("stripe:2/FSW: ")
