"""Smoke tests for the ``python -m repro`` command-line interface.

They call :func:`repro.__main__.main` in-process and read ``capsys``: an
interpreter per command line was 15 s of tier-1 in start-up alone.  Two
tests keep their subprocess because the process is what they test: the
working directory of ``demo`` / ``report --id``, and what ``report --id
baseline`` imports.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import CAMPAIGNS, main
from repro.bench.experiments import EXPERIMENTS


ROOT = Path(__file__).resolve().parents[2]
#: For a child started outside the checkout: the package by path only.
OUTSIDE_ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def run_cli(*args, timeout=300, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, timeout=timeout, **kwargs,
    )


@pytest.fixture
def cli(capsys):
    """``main([...])`` reported the way :func:`run_cli` reports a child."""

    def run(*args):
        try:
            code = main(list(args))
        except SystemExit as exc:  # argparse: --help, a bad command line
            code = exc.code
        captured = capsys.readouterr()
        return subprocess.CompletedProcess(args, code, captured.out,
                                           captured.err)

    return run


def test_cli_requires_command(cli):
    result = cli()
    assert result.returncode != 0


def test_cli_help(cli):
    result = cli("--help")
    assert result.returncode == 0
    assert "iobench" in result.stdout


def test_cli_cpubench(cli):
    """Figure 12 through ``report --id``: every cell inside its band (the
    same row fails with a doubled fault cost:
    ``tests/bench/test_experiments.py``), printed, nothing written."""
    result = cli("report", "--id", "fig12")
    assert result.returncode == 0, result.stdout
    assert "fig12 — Fig. 12" in result.stdout
    assert "| new CPU (s) | 2.67 | 2.6 |" in result.stdout
    assert result.stdout.endswith("OK: every cell inside its band\n")
    assert "wrote" not in result.stdout


def test_cli_musbus(cli):
    result = cli("report", "--id", "musbus")
    assert result.returncode == 0, result.stdout
    assert "| D/A elapsed | 0.997 |" in result.stdout


def test_cli_report_determinism_holds(cli):
    """Two sanitized same-seed runs in one process: the same raw trace
    bytes, rates and request counts."""
    result = cli("report", "--id", "determinism")
    assert result.returncode == 0, result.stdout
    assert "| traces differing | 0 | - | exact | ok |" in result.stdout


def test_cli_report_id_gates_the_committed_bytes(tmp_path, monkeypatch, cli):
    """``report --id`` writes nothing: it holds each document its rows own
    to the committed file's bytes and explains a difference with
    ``diff_documents``."""
    import repro.__main__ as cli_main
    from repro.obs.bench import write_document

    clean = cli("report", "--id", "baseline")
    assert clean.returncode == 0, clean.stdout
    assert "CHANGED" not in clean.stdout
    committed = json.loads((ROOT / "BENCH_baseline.json").read_text())
    committed["results"]["A"]["rates"]["FSR"] /= 0.9  # the run: 10 % slower
    path = tmp_path / "BENCH_baseline.json"
    write_document(path, committed["run"], committed["results"],
                   lambda _line: None)
    doctored = path.read_text()
    monkeypatch.setattr(cli_main, "_checkout_file",
                        lambda _command, *parts: tmp_path.joinpath(*parts))
    result = cli("report", "--id", "baseline")
    assert result.returncode == 1
    assert re.search(r"^CHANGED: BENCH_baseline\.json: A/FSR: 1638\.4 -> "
                     r"1474\.5 KB/s \(-10\.0%\)$", result.stdout, re.M)
    assert ("FAILED: a document these rows own differs from the committed "
            "file\n") in result.stdout
    assert list(tmp_path.iterdir()) == [path] and path.read_text() == doctored


def test_cli_crashpoints_writethrough_smoke(cli):
    """The paper's write-through drive, every crash state of its journal:
    the cells of its row, bands and no verdicts."""
    result = cli("crashpoints", "--preset", "writethrough")
    assert result.returncode == 0, result.stdout
    assert "| distinct states | 75 | - | 67.5 – 82.5 |\n" in result.stdout
    assert "| violations | 0 | - | exact |\n" in result.stdout
    assert "NOTE" not in result.stdout  # not truncated


@pytest.mark.parametrize("args, invariant, fingerprint, coverage", [
    (["crashpoints", "--preset", "ordered"], "violations", "digest",
     "distinct states"),
    (["netcampaign", "--seeds", "1", "--seed", "7"], "lost acked writes",
     "outcome sha256", "retransmits"),
], ids=["other-preset", "other-seeds"])
def test_cli_campaign_prints_only_its_own_rows_bands(args, invariant,
                                                     fingerprint, coverage,
                                                     cli):
    """A preset or seeds no row runs used to print the kind's first row's
    bands beside its own counts (``ordered`` beside ``smoke``'s, like
    ``append``, in a fifth of the time).  Those bands are now ``-``; the
    invariants keep ``exact`` and alone set the exit code."""
    result = cli(*args)
    assert result.returncode == 0, result.stdout
    assert f"| {invariant} | 0 | - | exact |\n" in result.stdout
    assert re.search(rf"^\| {fingerprint} \| [0-9a-f]{{64}} \| - \| - \|$",
                     result.stdout, re.M)
    assert re.search(rf"^\| {coverage} \| \d+ \| - \| - \|$",
                     result.stdout, re.M)


@pytest.mark.slow
def test_cli_iobench_small(cli):
    """Figs. 10/11 through the ``fig10_11`` row's cells and renderer: the
    paper's value and the row's band beside ours, no verdict column."""
    result = cli("iobench", "--configs", "A", "--file-mb", "2")
    assert result.returncode == 0
    assert "| cell | ours | paper | band |\n" in result.stdout
    assert re.search(r"^\| A FSR \| \d+ \| 1610 \| 1345 – 1643 \|$",
                     result.stdout, re.M)
    assert "A/D" not in result.stdout  # no ratio without a second config
    assert re.search(r"^  read +n=\d+ ", result.stdout, re.M)


def test_cli_crashpoints_json_stdout_parses(cli):
    """--json with no path writes the document to stdout and every human
    line to stderr, so ``python -m repro ... --json | jq .`` works."""
    result = cli("crashpoints", "--preset", "writethrough",
                 "--max-states", "40", "--json")
    assert result.returncode == 0
    document = json.loads(result.stdout)  # the whole of stdout is JSON
    assert isinstance(document, dict) and document
    assert "crash state" in result.stderr  # progress moved to stderr


def test_cli_scrubcampaign_json_stdout_parses(cli):
    result = cli("scrubcampaign", "--json")
    assert result.returncode == 0
    document = json.loads(result.stdout)
    assert "digest" in {c["name"] for c in document["results"]["cells"]}
    assert "scrubbing" in result.stderr


#: Per campaign: toy arguments that pass, a bad count/preset, and the row
#: whose cells it prints.
CAMPAIGN_ARGS = {
    "netcampaign": (["--seeds", "1"], ["--seeds", "0"], "netcampaign"),
    "crashpoints": (["--preset", "writethrough", "--max-states", "60"],
                    ["--preset", "nope"], "crashpoints_writethrough"),
    "scrubcampaign": ([], None, "scrubcampaign"),  # no count to get wrong
}


@pytest.mark.parametrize("row", CAMPAIGNS, ids=lambda row: row.name)
def test_cli_every_campaign_speaks_the_one_envelope(row, cli):
    """Every sweep writes ``repro-bench/v1``: the cells of its row it
    measured, in the row's order, and its records."""
    toy, bad, row_id = CAMPAIGN_ARGS[row.name]
    result = cli(row.name, *toy, "--json", "-")
    assert result.returncode == 0, result.stderr
    document = json.loads(result.stdout)  # the whole of stdout is JSON
    assert document["schema"] == "repro-bench/v1"
    assert document["run"]["benchmark"] == row.name
    cells = document["results"]["cells"]
    assert [c["name"] for c in cells] == [  # one row run measures this
        c.name for c in EXPERIMENTS[row_id].cells
        if c.name != "outcome differs unsanitized"]
    assert {c["value"] for c in cells if c["band"] == [0, 0]} == {0}
    assert isinstance(document["results"]["records"], list)
    assert "| outcome sha256 |" in result.stderr and "OK:" in result.stderr
    if bad is not None:
        refused = cli(row.name, *bad)
        assert refused.returncode == 2
        assert refused.stdout == ""
        assert refused.stderr.startswith(f"{row.name}: ")
        assert "Traceback" not in refused.stderr


def test_cli_demo_and_traces_run_outside_the_checkout(tmp_path):
    """``demo`` resolves its file against the checkout that holds the
    package, not the working directory; ``report --id`` (the figure 3/6/7
    traces here) needs no checkout and writes nothing where it runs."""
    demo = run_cli("demo", cwd=tmp_path, env=OUTSIDE_ENV)
    assert demo.returncode == 0, demo.stderr
    assert "fsck: CLEAN" in demo.stdout
    traces = run_cli("report", "--id", "fig3_6_7", cwd=tmp_path,
                     env=OUTSIDE_ENV)
    assert traces.returncode == 0, traces.stdout + traces.stderr
    assert ("| fig. 7 writes | lie / lie / push 0,..,2 / lie / lie / push "
            "3,..,5 |") in traces.stdout
    assert list(tmp_path.iterdir()) == []


def test_cli_inert_network_injection_fails_by_cell(monkeypatch, cli):
    """A plan that injects nothing passes every invariant vacuously: the
    "injection inert" cell fails the sweep."""
    from repro.faults import NetCampaign, NetFaultPlan

    monkeypatch.setattr(NetCampaign, "_plan_for",
                        lambda self, seed: NetFaultPlan(seed=seed))
    result = cli("netcampaign", "--seeds", "2")
    assert result.returncode == 1
    assert "| injection inert | 1 | - | exact |\n" in result.stdout
    assert ("FAILED: netcampaign / injection inert: 1 outside exact (it "
            "retransmitted") in result.stdout
    assert "| lost acked writes | 0 |" in result.stdout


def test_cli_json_to_path_keeps_stdout_human(tmp_path, cli):
    path = tmp_path / "out.json"
    result = cli("crashpoints", "--preset", "writethrough",
                 "--max-states", "40", "--json", str(path))
    assert result.returncode == 0
    assert "crash state" in result.stdout  # human mode unchanged
    json.loads(path.read_text())


@pytest.fixture
def never_simulates(monkeypatch):
    from repro.bench.iobench import IObench
    from repro.faults import NetCampaign

    for cls in (IObench, NetCampaign):
        monkeypatch.setattr(cls, "run", lambda self: pytest.fail("simulated"))


@pytest.mark.parametrize("argv, complaint", [
    (["iobench", "--configs", "Q"], "iobench: unknown configuration 'Q'"),
    (["iobench", "--layout", "stripe:1"], "iobench: stripe layout needs"),
    (["iobench", "--layout", "stripe:2:read=shortest"],
     "iobench: option 'read' does not apply to a stripe layout"),
    (["report", "--id", "fig12", "--id", "fig99"],
     "report: unknown experiment 'fig99'"),
    (["iobench", "--configs", "AD", "--file-mb", "0"],
     "iobench: file size must be a positive multiple of 8 KB, not 0 bytes"),
    (["trace", "analyze", "--file-mb", "1", "--ops", "-5"],
     "trace: random ops must be at least 1, not -5"),
    (["trace", "jsonl", "--file-mb", "0"], "trace: file size must be"),
    (["iobench", "--configs", ""], "iobench: --configs names no configuration"),
    (["trace", "series", "--interval-ms", "0"],
     "trace: telemetry interval must be finite and > 0, not 0 s"),
    (["trace", "series", "--interval-ms", "nan"],
     "trace: telemetry interval must be finite and > 0, not nan s"),
    (["trace", "series", "--interval-ms", "inf"],
     "trace: telemetry interval must be finite and > 0, not inf s"),
    (["trace", "analyze", "--top", "-1"], "trace: --top must be >= 0, not -1"),
    (["crashpoints", "--max-states", "0"], "crashpoints: max_states must be"),
    (["netcampaign", "--seeds", "1", "--json", "/nonexistent/x.json"],
     "netcampaign: cannot write /nonexistent/x.json: /nonexistent is not a "
     "directory"),
    (["trace", "jsonl", "--file-mb", "1", "--out", "/nonexistent/t.jsonl"],
     "trace: cannot write /nonexistent/t.jsonl: "),
    (["trace", "chrome", "--out", "."], "trace: cannot write .: it is a "
                                        "directory"),
], ids=["iobench-config", "iobench-layout", "iobench-stray-option",
        "report-unknown-id", "iobench-empty-file", "trace-negative-ops",
        "trace-empty-file", "iobench-no-configs", "trace-zero-interval",
        "trace-nan-interval", "trace-inf-interval", "trace-negative-top",
        "crashpoints-no-states", "campaign-json-dir", "trace-out-dir",
        "trace-out-is-dir"])
def test_cli_bad_config_or_layout_is_one_stderr_line_and_exit_2(
        cli, never_simulates, argv, complaint):
    result = cli(*argv)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith(complaint)
    assert result.stderr.count("\n") == 1


def test_cli_bench_imports_no_campaign(tmp_path):
    """The baseline bench needs no sweep: its writer lives in
    ``obs/bench.py``, and a machine without checksums never looks at
    ``repro.integrity``."""
    result = run_cli("report", "--id", "baseline", cwd=tmp_path,
                     env={**OUTSIDE_ENV, "PYTHONPROFILEIMPORTTIME": "1"})
    assert result.returncode == 0, result.stderr
    loaded = re.findall(r"\| +(repro[\w.]*)$", result.stderr, re.M)
    assert "repro.obs.bench" in loaded
    assert [name for name in loaded if name.startswith(
        ("repro.faults", "repro.nfs", "repro.integrity"))] == []


def test_cli_trace_analyze_verifies_and_exits_zero(cli):
    result = cli("trace", "analyze", "--config", "C",
                 "--file-mb", "1", "--ops", "16")
    assert result.returncode == 0
    assert "critical paths:" in result.stdout
    assert "slowest 5 requests:" in result.stdout
    assert "OK: every critical path conserves" in result.stdout
    # --top 0 is valid and prints no list.
    none = cli("trace", "analyze", "--config", "C",
               "--file-mb", "1", "--ops", "16", "--top", "0")
    assert none.returncode == 0
    assert "slowest" not in none.stdout


def test_cli_trace_chrome_and_flamegraph_round_trip(tmp_path, cli):
    chrome = tmp_path / "trace.json"
    result = cli("trace", "chrome", "--config", "C", "--file-mb", "1",
                 "--ops", "16", "--out", str(chrome))
    assert result.returncode == 0
    document = json.loads(chrome.read_text())
    assert document["otherData"]["schema"] == "repro-chrome/v1"
    assert document["traceEvents"]

    folded = cli("trace", "flamegraph", "--config", "C", "--file-mb", "1",
                 "--ops", "16", "--out", "-")
    assert folded.returncode == 0
    assert any(";" in line and line.rsplit(" ", 1)[1].isdigit()
               for line in folded.stdout.splitlines())
    # --out - hands stdout to the export: no "wrote ..." / line-count tail.
    assert "wrote" not in folded.stdout and " lines, " not in folded.stdout


def test_cli_trace_jsonl_exports_a_loadable_deterministic_trace(tmp_path, cli):
    """``trace jsonl`` writes ``Tracer.to_jsonl`` through the one text
    writer; ``load_jsonl`` reads back the same document, byte for byte."""
    from repro.sim.trace import load_jsonl

    paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
    for path in paths:
        result = cli("trace", "jsonl", "--config", "C", "--file-mb", "1",
                     "--ops", "16", "--out", str(path))
        assert result.returncode == 0, result.stderr
        assert f"wrote {path}" in result.stdout
        assert "one traced read, as a span tree:\nread [" in result.stdout
    text = paths[0].read_text()
    assert load_jsonl(text).to_jsonl() + "\n" == text
    assert paths[1].read_text() == text  # same seed, same bytes

    piped = cli("trace", "jsonl", "--config", "C", "--file-mb", "1",
                "--ops", "16", "--out", "-")
    assert piped.returncode == 0
    assert piped.stdout == text  # the document alone; the rest on stderr
    assert "one traced read" in piped.stderr


GOOD_TRACE = [
    '{"type": "meta", "schema": "repro-trace/v1", "records": 0, "spans": 3}',
    '{"type": "span", "id": 1, "parent": null, "name": "read",'
    ' "begin": 0.0, "end": 0.01, "request": 1}',
    '{"type": "span", "id": 2, "parent": 1, "name": "queue_wait",'
    ' "begin": 0.001, "end": 0.004}',
    '{"type": "span", "id": 3, "parent": 1, "name": "transfer",'
    ' "begin": 0.004, "end": 0.009}',
]


def test_cli_trace_ingests_exported_jsonl(tmp_path, cli):
    jsonl = tmp_path / "trace.jsonl"
    jsonl.write_text("\n".join(GOOD_TRACE) + "\n")
    result = cli("trace", "analyze", "--trace-jsonl", str(jsonl))
    assert result.returncode == 0
    assert "queue_wait" in result.stdout
    # series needs a live run; an offline trace has no metrics registry.
    refused = cli("trace", "series", "--trace-jsonl", str(jsonl))
    assert refused.returncode == 2


@pytest.mark.parametrize("content, complaint", [
    ("", "empty trace document"),
    ("\n".join(GOOD_TRACE).replace("repro-trace/v1", "other/v9") + "\n",
     "not a repro-trace/v1 trace"),
    ("\n".join(GOOD_TRACE[:-1]) + "\n", "declares 3 spans, found 2"),
    ("\n".join(GOOD_TRACE)[:-20], "unparseable trace line"),
    (None, "No such file"),
], ids=["empty", "wrong-schema", "cut-at-a-line", "cut-mid-line", "missing"])
@pytest.mark.parametrize("mode", ["analyze", "chrome"])
def test_cli_trace_bad_jsonl_is_one_stderr_line_and_exit_2(
        tmp_path, capsys, mode, content, complaint):
    path = tmp_path / "bad.jsonl"
    if content is not None:
        path.write_text(content)
    out = tmp_path / "out.json"
    assert main(["trace", mode, "--trace-jsonl", str(path),
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("trace: ") and complaint in captured.err
    assert captured.err.count("\n") == 1


def test_cli_trace_series_refuses_an_unknown_namespace(cli):
    result = cli("trace", "series", "--config", "A", "--file-mb", "1",
                 "--ops", "16", "--namespaces", "vm.freemem,bogus")
    assert result.returncode == 2
    assert result.stderr.startswith("trace: unknown metrics namespace "
                                    "'bogus' (one of cpu, disk.driver, ")
    assert result.stderr.count("\n") == 1


def test_cli_trace_series_renders_sparklines(cli):
    result = cli("trace", "series", "--config", "A", "--file-mb", "1",
                 "--ops", "16", "--namespaces", "vm.freemem",
                 "--interval-ms", "20")
    assert result.returncode == 0
    assert "vm.freemem" in result.stdout
    assert "|" in result.stdout
