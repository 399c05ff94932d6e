"""Smoke tests for the ``python -m repro`` command-line interface.

They call :func:`repro.__main__.main` in-process and read ``capsys``: an
interpreter per command line was 15 s of tier-1 in start-up alone.  Two
tests keep their subprocess because the process is what they test: the
working directory of ``demo`` / ``traces``, and what ``bench`` imports.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import CAMPAIGNS, main


#: For a child started outside the checkout: the package by path only.
OUTSIDE_ENV = {**os.environ,
               "PYTHONPATH": str(Path(__file__).resolve().parents[2] / "src")}


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
    result = cli("cpubench")
    assert result.returncode == 0
    assert "new:" in result.stdout and "old:" in result.stdout


def test_cli_musbus(cli):
    result = cli("musbus", "--users", "2")
    assert result.returncode == 0
    assert "config A" in result.stdout


def test_cli_faultcampaign_smoke(cli):
    result = cli("faultcampaign", "--cuts", "3")
    assert result.returncode == 0
    assert "clean_after_repair" in result.stdout
    assert "silent_corruptions" in result.stdout


@pytest.mark.slow
def test_cli_iobench_small(cli):
    result = cli("iobench", "--configs", "A", "--file-mb", "2")
    assert result.returncode == 0
    assert "FSR" in result.stdout


def test_cli_faultcampaign_json_stdout_parses(cli):
    """--json with no path writes the document to stdout and every human
    line to stderr, so ``python -m repro ... --json | jq .`` works."""
    result = cli("faultcampaign", "--cuts", "2", "--json")
    assert result.returncode == 0
    document = json.loads(result.stdout)  # the whole of stdout is JSON
    assert isinstance(document, dict) and document
    assert "power cuts" in result.stderr  # progress moved to stderr


def test_cli_scrubcampaign_json_stdout_parses(cli):
    result = cli("scrubcampaign", "--json")
    assert result.returncode == 0
    document = json.loads(result.stdout)
    assert "digest" in document
    assert "scrubbing" in result.stderr


#: Per campaign: toy arguments that pass, and a bad count/preset.
CAMPAIGN_ARGS = {
    "faultcampaign": (["--cuts", "2"], ["--cuts", "0"]),
    "netcampaign": (["--seeds", "1"], ["--seeds", "0"]),
    "memberkill": (["--seeds", "1"], ["--seeds", "0"]),
    "crashpoints": (["--preset", "smoke", "--max-states", "200"],
                    ["--preset", "nope"]),
    "scrubcampaign": ([], None),  # takes no count to get wrong
}


@pytest.mark.parametrize("row", CAMPAIGNS, ids=lambda row: row.name)
def test_cli_every_campaign_speaks_the_one_envelope(row, cli):
    toy, bad = CAMPAIGN_ARGS[row.name]
    result = cli(row.name, *toy, "--json", "-")
    assert result.returncode == 0, result.stderr
    document = json.loads(result.stdout)  # the whole of stdout is JSON
    assert document["schema"] == "repro-campaign/v1"
    assert document["campaign"] == row.name
    assert document["ok"] is True
    assert len(document["digest"]) == 64
    assert "digest" in result.stderr and "OK:" in result.stderr
    if bad is not None:
        refused = cli(row.name, *bad)
        assert refused.returncode == 2
        assert refused.stdout == ""
        assert refused.stderr.startswith(f"{row.name}: ")
        assert "Traceback" not in refused.stderr


def test_cli_demo_and_traces_run_outside_the_checkout(tmp_path):
    """Both resolve their file against the checkout that holds the
    package, not against the working directory."""
    demo = run_cli("demo", cwd=tmp_path, env=OUTSIDE_ENV)
    assert demo.returncode == 0, demo.stderr
    assert "fsck: CLEAN" in demo.stdout
    traces = run_cli("traces", cwd=tmp_path, env=OUTSIDE_ENV)
    assert traces.returncode == 0, traces.stdout + traces.stderr
    assert "not found" not in traces.stdout + traces.stderr


def test_cli_json_to_path_keeps_stdout_human(tmp_path, cli):
    path = tmp_path / "out.json"
    result = cli("faultcampaign", "--cuts", "2", "--json", str(path))
    assert result.returncode == 0
    assert "power cuts" in result.stdout  # human mode unchanged
    json.loads(path.read_text())


def test_cli_bench_json_stdout_parses(cli):
    result = cli("bench", "--configs", "A", "--file-mb", "1",
                 "--ops", "32", "--json")
    assert result.returncode == 0
    document = json.loads(result.stdout)
    assert document["schema"] == "repro-bench/v1"
    assert document["results"]["A"]["rates"]["FSR"] > 0
    assert "bench id" in result.stderr


def test_cli_bench_gate_against_self(tmp_path, cli):
    baseline = tmp_path / "BENCH_baseline.json"
    first = cli("bench", "--configs", "A", "--file-mb", "1",
                "--ops", "32", "--json", str(baseline))
    assert first.returncode == 0
    gated = cli("bench", "--configs", "A", "--file-mb", "1",
                "--ops", "32", "--baseline", str(baseline), "--diff")
    assert gated.returncode == 0
    assert "perf gate OK" in gated.stdout
    # A mismatched baseline (different parameters) must fail the gate.
    mismatched = cli("bench", "--configs", "A", "--file-mb", "1",
                     "--ops", "16", "--baseline", str(baseline))
    assert mismatched.returncode == 1
    assert "perf gate FAILED" in mismatched.stdout


@pytest.fixture
def never_simulates(monkeypatch):
    from repro.bench.iobench import IObench

    monkeypatch.setattr(IObench, "run", lambda self: pytest.fail("simulated"))


@pytest.mark.parametrize("argv, complaint", [
    (["bench", "--configs", "Z"], "bench: unknown configuration 'Z'"),
    (["bench", "--layout", "bogus"], "bench: unknown volume kind 'bogus'"),
    (["iobench", "--configs", "Q"], "iobench: unknown configuration 'Q'"),
    (["iobench", "--layout", "stripe:1"], "iobench: stripe layout needs"),
    (["bench", "--layout", "concat:2:chunk=16k"],
     "bench: option 'chunk' does not apply to a concat layout"),
    (["iobench", "--layout", "stripe:2:read=shortest"],
     "iobench: option 'read' does not apply to a stripe layout"),
], ids=["bench-config", "bench-layout", "iobench-config", "iobench-layout",
        "bench-stray-option", "iobench-stray-option"])
def test_cli_bad_config_or_layout_is_one_stderr_line_and_exit_2(
        cli, never_simulates, argv, complaint):
    result = cli(*argv)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith(complaint)
    assert result.stderr.count("\n") == 1


@pytest.mark.parametrize("content, complaint", [
    (None, "No such file"),
    ("wrote BENCH.json\n", "Expecting value"),
    ("[]\n", "not a JSON object"),
], ids=["missing", "not-json", "not-an-object"])
def test_cli_bench_bad_baseline_is_refused_before_simulating(
        cli, never_simulates, tmp_path, content, complaint):
    """It used to be opened only after the whole bench had run."""
    path = tmp_path / "baseline.json"
    if content is not None:
        path.write_text(content)
    result = cli("bench", "--baseline", str(path))
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith(f"bench: baseline {path}: ")
    assert complaint in result.stderr and result.stderr.count("\n") == 1


def test_cli_bench_imports_no_campaign(tmp_path):
    """Writing a bench document needs no sweep: the writer lives in
    ``obs/bench.py``, and a machine without checksums never looks at
    ``repro.integrity``."""
    result = run_cli("bench", "--configs", "A", "--file-mb", "1", "--ops", "8",
                     cwd=tmp_path,
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
    assert "OK: every critical path conserves" in result.stdout


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


def test_cli_trace_series_renders_sparklines(cli):
    result = cli("trace", "series", "--config", "A", "--file-mb", "1",
                 "--ops", "16", "--namespaces", "vm.freemem",
                 "--interval-ms", "20")
    assert result.returncode == 0
    assert "vm.freemem" in result.stdout
    assert "|" in result.stdout
