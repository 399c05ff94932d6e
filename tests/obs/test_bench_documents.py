"""Every committed ``BENCH_*.json`` is one shape from one writer.

Before ``write_document`` five benchmarks hand-wrote five shapes with no
schema and no id, so when later PRs added fields nobody re-recorded and
nothing could notice.  The id is a content hash: a document edited by hand,
or written by anything but :mod:`repro.obs.bench`, fails here without a
single simulated second.  (CI re-runs the emitters and diffs the files;
that is the check that the numbers are still today's.)
"""

import json
from pathlib import Path

import pytest

from repro.obs.bench import (
    BENCH_SCHEMA, bench_document, canonical_json, document_id,
    write_document,
)

ROOT = Path(__file__).resolve().parents[2]
DOCUMENTS = sorted(ROOT.glob("BENCH_*.json"))

RUN = {"benchmark": "toy", "file_mb": 1}


def test_the_committed_documents_are_the_five_known():
    assert [p.name for p in DOCUMENTS] == [
        "BENCH_baseline.json", "BENCH_pipeline.json", "BENCH_scrub.json",
        "BENCH_trace.json", "BENCH_volume.json"]


@pytest.mark.parametrize("path", DOCUMENTS, ids=lambda p: p.name)
def test_committed_document_is_canonical_and_verifies(path):
    text = path.read_text()
    document = json.loads(text)
    assert document["schema"] == BENCH_SCHEMA
    assert document_id(document) == document["id"]
    assert set(document) == {"schema", "id", "run", "results"}
    assert document["results"], "a document with no cell records nothing"
    assert canonical_json(document) == text


def test_write_document_writes_the_stamped_canonical_bytes(tmp_path, capsys):
    path = tmp_path / "BENCH_toy.json"
    write_document(path, RUN, {"a": {"rates": {"FSR": 1.0}}})
    document = bench_document(RUN, {"a": {"rates": {"FSR": 1.0}}})
    assert path.read_text() == canonical_json(document)
    assert document["schema"] == BENCH_SCHEMA
    assert document["id"] == document_id(document)
    assert capsys.readouterr().out == f"wrote {path}\n"


def test_write_document_dash_is_stdout_and_says_nothing_else(capsys):
    said = []
    write_document("-", RUN, {"a": {}}, said.append)
    assert capsys.readouterr().out == canonical_json(
        bench_document(RUN, {"a": {}}))
    assert said == []


def test_rewriting_keeps_only_the_sections_passed(tmp_path):
    path = tmp_path / "BENCH_toy.json"
    write_document(path, RUN, {"old": {"n": 1}, "kept": {"n": 2}},
                   lambda _line: None)
    first = json.loads(path.read_text())
    write_document(path, RUN, {"kept": {"n": 3}}, lambda _line: None)
    second = json.loads(path.read_text())
    assert second["results"] == {"kept": {"n": 3}}
    assert second["id"] != first["id"]
    assert second["id"] == document_id(second)
