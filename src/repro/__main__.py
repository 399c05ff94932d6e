"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``iobench [--configs AD] [--file-mb 16]`` — run the paper's figure 10
  benchmark and print its figure 10/11 cells beside the paper's values
  and the ``fig10_11`` row's bands, then the run's request latencies;
* ``report [--id ID ...]`` — the experiment table
  (``repro.bench.experiments``): run every row, print each with a verdict
  per cell, exit 1 on a cell outside its band, and write
  ``BENCH_experiments.json``, the documents rows own, RESULTS.md and
  EXPERIMENTS.md's generated blocks; ``--id`` runs only the named rows,
  writes nothing, and exits 1 when a document they own is not the
  committed file's bytes;
* the four campaign sweeps, one row of :data:`CAMPAIGNS` each and listed
  from it at the end of this docstring — all take ``[--seed 0]
  [--sanitize] [--json [PATH]]`` and print the cells of their row of the
  experiment table; exit 0 when every invariant held, 1 on an ``exact(0)``
  cell that is not 0, 2 on a bad argument;
* ``trace {analyze|chrome|flamegraph|jsonl|series}`` — trace analytics:
  run a seeded iobench phase (or ingest an existing ``--trace-jsonl``
  file) and either print the critical-path report with per-layer blame
  (``analyze``), export Chrome trace-event JSON for ``chrome://tracing``
  / Perfetto (``chrome``), export collapsed folded stacks for flamegraph
  tools (``flamegraph``), export the records and spans as JSON lines and
  print one traced read as a span tree (``jsonl``), or record
  simulated-time telemetry series of selected metrics namespaces
  (``series``);
* ``demo`` — a short guided tour (quickstart + fsck).

``iobench`` and every campaign accept ``--sanitize``: every machine the
command builds is born with the cross-layer invariant sanitizer on (a
``repro.sim.invariants.sanitizing`` scope around the command); without
it the ``REPRO_SANITIZE`` environment variable decides.

Every command with ``--json`` accepts it bare (or as ``--json -``) to
write the JSON document to **stdout** with all human progress routed to
stderr, so ``python -m repro <cmd> --json | jq .`` just works; ``trace
--out -`` does the same for an export.
"""

from __future__ import annotations

import argparse
import sys
from importlib import import_module
from pathlib import Path
from typing import Any, Callable, Iterable, NamedTuple


def _emit(args: argparse.Namespace):
    """The human-output printer for commands that can write a document.

    When the document itself goes to stdout (``--json -``, ``--out -``),
    every progress/verdict line moves to stderr so stdout stays parseable.
    """
    if "-" in (getattr(args, "json", ""), getattr(args, "out", "")):
        return lambda *a, **k: print(*a, file=sys.stderr, **k)
    return print


def _add_json_flag(parser: argparse.ArgumentParser, help_text: str) -> None:
    parser.add_argument(
        "--json", nargs="?", const="-", default="", metavar="PATH",
        help=help_text + " (bare --json writes it to stdout; human "
                         "output then goes to stderr)")


def _benches(command: str, args: argparse.Namespace, configs, **kwargs):
    """One IObench of ``--file-mb`` MB per figure 9 row ``configs`` names,
    ``--scheduler`` / ``--layout`` applied where the command has them;
    None (after one stderr line) when a row, the layout or a size is bad,
    so the command can exit 2 before it simulates anything."""
    from repro.bench.iobench import IObench
    from repro.disk.volume import VolumeSpec
    from repro.errors import InvalidArgumentError
    from repro.kernel import SystemConfig
    from repro.units import MB

    scheduler = getattr(args, "scheduler", "")
    layout = getattr(args, "layout", "")
    if not configs:
        print(f"{command}: --configs names no configuration", file=sys.stderr)
        return None
    try:
        VolumeSpec.parse(layout)
        return [IObench(SystemConfig.preset(name, scheduler, layout),
                        file_size=args.file_mb * MB, **kwargs)
                for name in configs]
    except (ValueError, InvalidArgumentError) as exc:
        print(f"{command}: {exc}", file=sys.stderr)
        return None


def _cmd_iobench(args: argparse.Namespace) -> int:
    from repro.bench.experiments import EXPERIMENTS, fig10_11_cells
    from repro.bench.iobench import pipeline_lines
    from repro.bench.report import entry, render_block

    benches = _benches("iobench", args, args.configs)
    if benches is None:
        return 2
    names = args.configs.upper()
    where = f" on layout {args.layout}" if args.layout else ""
    print(f"running IObench on configurations {', '.join(names)}{where} "
          f"({args.file_mb} MB file; this simulates a few minutes of 1991)...")
    runs = {name: bench.run() for name, bench in zip(names, benches)}
    first = benches[0]
    block = entry(EXPERIMENTS["fig10_11"], fig10_11_cells(runs)) | {
        "workload": f"IObench on {', '.join(runs)}{where}: {args.file_mb} MB "
                    f"file, {first.random_ops} random 8 KB ops, "
                    f"seed {first.seed}"}
    print()
    print(render_block(block))
    system = first.system
    print(f"pipeline (config {names[0]}, layout={system.volume.describe()}, "
          f"scheduler={system.driver.scheduler_name}):")
    print("\n".join(pipeline_lines(system.metrics.snapshot())))
    return 0


def _checkout_file(command: str, *parts: str) -> "Path | None":
    """A file of the checkout that holds this package (``src/repro`` sits
    two levels below its root), whatever the working directory; an
    installed package has no ``examples/`` or ``EXPERIMENTS.md`` beside
    it.  With no ``command``, None says so without a word."""
    path = Path(__file__).resolve().parents[2].joinpath(*parts)
    if path.is_file():
        return path
    if command:
        print(f"{command}: needs a source checkout ({path} not found)",
              file=sys.stderr)
    return None


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.bench import report
    from repro.bench.experiments import EXPERIMENTS

    unknown = [i for i in args.id if i not in EXPERIMENTS]
    if unknown:
        print(f"report: unknown experiment {unknown[0]!r} (one of "
              f"{', '.join(EXPERIMENTS)})", file=sys.stderr)
        return 2
    # A full run rewrites the checkout's documents, so it needs one; --id
    # compares with them when there is one.
    target = _checkout_file("" if args.id else "report", "EXPERIMENTS.md")
    if target is None and not args.id:
        return 2
    document, owned = report.run_experiments(
        [EXPERIMENTS[i] for i in args.id or EXPERIMENTS])
    changed = report.changed_documents(target.parent, owned) if target else []
    for line in changed:
        print(f"CHANGED: {line}")
    if not args.id:
        report.publish(target.parent, document, owned)
    problems = report.failures(document)
    if args.id and changed:  # it writes nothing: the committed bytes gate it
        problems.append("a document these rows own differs from the "
                        "committed file")
    for line in problems:
        print(f"FAILED: {line}")
    print(report.fidelity_line(document))
    if not problems:
        print("OK: every cell inside its band")
    return 1 if problems else 0


class CampaignCommand(NamedTuple):
    """One campaign subcommand: ``cls`` is ``module:Class``, imported at
    use so ``--help`` never pays for the simulator; each ``(parameter,
    default, help)`` of ``flags`` becomes a ``--flag`` beside ``--seed`` /
    ``--json`` and :func:`main`'s ``--sanitize`` scope (a ``ValueError``
    from the constructor is a bad argument); ``notes(campaign)`` yields
    human lines after the cells.
    """

    name: str
    help: str
    cls: str
    flags: "tuple[tuple[str, Any, str], ...]"
    notes: "Callable[[Any], Iterable[str]] | None" = None


def _crashpoint_notes(explorer: Any) -> Iterable[str]:
    if explorer.stats.states_truncated:
        yield (f"NOTE: enumeration truncated at --max-states="
               f"{explorer.max_states}; coverage is partial")
    for v in explorer.records[:10]:
        yield (f"  [{v['category']}] {v['detail']} (crash point "
               f"{v['event_index']}, torn={v['torn']})")
        for span in v["spans"][:1]:
            yield "    " + span.replace("\n", "\n    ")


CAMPAIGNS = (
    CampaignCommand(
        "netcampaign",
        "seeded network faults over an NFS workload (drops, duplicates, "
        "corruption, partitions: no lost acknowledged write, exactly-once "
        "mutations)",
        "repro.faults:NetCampaign",
        (("seeds", 20, "number of seeded fault schedules"),)),
    CampaignCommand(
        "crashpoints",
        "every bounded-legal crash state of a workload recorded on its "
        "drives' journal (write-through, or volatile-cache subsets; x torn "
        "writes; per member on a stripe, per leg and leg death on a "
        "mirror): fsck-repair, remount, hold each durability point to its "
        "word",
        "repro.faults:CrashpointExplorer",
        (("preset", "smoke", "workload preset (see "
                             "repro.faults.crashpoints.PRESETS)"),
         ("max_states", 20000, "raw crash-state budget")),
        notes=_crashpoint_notes),
    CampaignCommand(
        "scrubcampaign",
        "seeded silent corruption (bit rot, misdirected, torn and zeroed "
        "fragments), then scrubbing: detect, repair, precise EIO, "
        "rehabilitation",
        "repro.integrity:ScrubCampaign",
        ()),
)

__doc__ = (__doc__ or "") + (
    "\nCampaign commands (from ``CAMPAIGNS``):\n\n" + "".join(
        f"* ``{row.name}`` — {row.help};\n" for row in CAMPAIGNS))


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.bench.experiments import sweep_cells, sweep_row
    from repro.bench.report import entry, failures, render_block
    from repro.obs.bench import write_document

    row: CampaignCommand = args.campaign
    say = _emit(args)
    module, _, cls = row.cls.partition(":")
    run = {"seed": args.seed} | {
        name: getattr(args, name) for name, _, _ in row.flags}
    try:
        campaign = getattr(import_module(module), cls)(**run)
    except ValueError as exc:
        print(f"{row.name}: {exc}", file=sys.stderr)
        return 2
    say(f"{row.name} (seed={args.seed}): {row.help}...")
    campaign.run()
    table, own = sweep_row(row.name, run, {"seed": 0} | {
        name: default for name, default, _ in row.flags})
    block = entry(table, sweep_cells(campaign)) | {"workload": (
        f"{row.name}: " + ", ".join(f"{k} {v}" for k, v in run.items())
        + ", sanitized" * args.sanitize)}
    if not own:  # the row's fingerprints and coverage are another run's
        for cell in block["cells"]:
            if cell["band"] != [0, 0]:
                cell["band"] = None
    say(render_block(block))
    for line in (row.notes(campaign) if row.notes else ()):
        say(line)
    if args.json:
        write_document(args.json, {"benchmark": row.name,
                                   "sanitize": args.sanitize} | run, {
            "cells": block["cells"], "records": campaign.records}, say)
    violated = failures({"results": {row.name: {"cells": [
        c for c in block["cells"] if c["band"] == [0, 0]]}}})
    for line in violated:
        say(f"FAILED: {line}")
    if not violated:
        say("OK: every invariant the sweep checks held")
    return 1 if violated else 0


def _trace_bench(args: argparse.Namespace, say, **telemetry):
    """Run the seeded iobench the trace subcommands analyze; returns the
    bench (its system carries the tracer and any telemetry recorder), or
    None after one stderr line when a size is bad."""
    benches = _benches("trace", args, [args.config], random_ops=args.ops,
                       seed=args.seed, trace_phase=args.phase, **telemetry)
    if benches is None:
        return None
    say(f"running IObench config {args.config.upper()} "
        f"({args.file_mb} MB file, {args.ops} random ops, "
        f"seed {args.seed}; tracing phase {args.phase})...")
    benches[0].run()
    return benches[0]


def _trace_source(args: argparse.Namespace, say):
    """The tracer to analyze: an ingested ``--trace-jsonl`` file, or a
    fresh seeded iobench run.  None (after one stderr line) when the file
    is unreadable or not a complete trace, or the run's sizes are bad."""
    from repro.sim.trace import load_jsonl

    if args.trace_jsonl:
        try:
            with open(args.trace_jsonl) as fh:
                tracer = load_jsonl(fh.read())
        except (OSError, ValueError) as exc:
            print(f"trace: {exc}", file=sys.stderr)
            return None
        say(f"loaded {len(tracer.spans)} spans and "
            f"{len(tracer.records)} records from {args.trace_jsonl}")
        return tracer
    bench = _trace_bench(args, say)
    return None if bench is None else bench.system.tracer


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.bench import write_json, write_text
    from repro.obs.critpath import (
        critical_paths, verify_against_attribution, verify_conservation,
    )
    from repro.obs.export import chrome_trace_json, folded_stacks

    say = _emit(args)
    if args.top < 0:
        print(f"trace: --top must be >= 0, not {args.top}", file=sys.stderr)
        return 2

    if args.mode == "series":
        if args.trace_jsonl:
            print("trace series: needs a live run (telemetry samples the "
                  "machine, not a trace file); drop --trace-jsonl",
                  file=sys.stderr)
            return 2
        namespaces = ([ns.strip() for ns in args.namespaces.split(",")
                       if ns.strip()] if args.namespaces else None)
        try:
            bench = _trace_bench(args, say,
                                 telemetry_interval=args.interval_ms / 1e3,
                                 telemetry_namespaces=namespaces)
        except ValueError as exc:  # a namespace the machine does not have
            print(f"trace: {exc}", file=sys.stderr)
            return 2
        if bench is None:
            return 2
        recorder = bench.telemetry
        assert recorder is not None
        say(f"sampled {recorder.samples_taken} ticks at "
            f"{args.interval_ms:g} ms simulated cadence")
        for ns in sorted(recorder._sources):
            for key in recorder.keys(ns):
                say("  " + recorder.render(ns, key))
        if args.json:
            write_json(args.json, recorder.to_json(), say)
        return 0

    tracer = _trace_source(args, say)
    if tracer is None:
        return 2
    if args.mode == "jsonl":
        write_text(args.out or "trace.jsonl", tracer.to_jsonl() + "\n", say)
        # The first traced read that went to the disk.
        for root in tracer.span_roots():
            if root.name == "read" and root.fields.get("ios"):
                say("one traced read, as a span tree:")
                say(tracer.render_spans(root))
                break
        return 0
    report = critical_paths(tracer)

    if args.mode == "analyze":
        say(report.render(top_n=args.top))
        problems = (verify_conservation(report)
                    + verify_against_attribution(tracer, report))
        if args.json:
            document = report.to_json()
            document["violations"] = problems
            write_json(args.json, document, say)
        if problems:
            say(f"FAILED: {len(problems)} conservation/attribution "
                "violation(s)")
            for problem in problems[:10]:
                say(f"  {problem}")
            return 1
        say("OK: every critical path conserves its request's latency and "
            "agrees with the attribution sweep")
        return 0

    if args.mode == "chrome":
        text = chrome_trace_json(tracer)
        args.out = args.out or "trace-chrome.json"
    else:  # flamegraph
        text = folded_stacks(tracer, report)
        args.out = args.out or "trace.folded"
    if report.open_roots or report.open_spans:
        say(f"WARNING: {report.open_roots} open request(s) excluded, "
            f"{report.open_spans} open span(s) clamped")
    write_text(args.out, text, say)
    if args.out != "-":
        say(f"{len(text.splitlines())} lines, {len(report.paths)} requests")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    import runpy

    quickstart = _checkout_file("demo", "examples", "quickstart.py")
    if quickstart is None:
        return 2
    runpy.run_path(str(quickstart), run_name="__main__")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of McVoy & Kleiman, USENIX 1991.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("iobench", help="figure 10/11 transfer rates")
    p.add_argument("--configs", default="AD",
                   help="which figure 9 configurations (default AD)")
    p.add_argument("--file-mb", type=int, default=16)
    p.add_argument("--scheduler", default="",
                   choices=["", "elevator", "fifo", "deadline"],
                   help="override the disk scheduler for every config")
    p.add_argument("--layout", default="",
                   help="override the block-device layout for every config "
                        "(single, concat:N, stripe:N[:chunk=SIZE], "
                        "mirror:N[:read=rr|shortest])")
    p.add_argument("--sanitize", action="store_true",
                   help="run with the cross-layer invariant sanitizer on")
    p.set_defaults(fn=_cmd_iobench)

    p = sub.add_parser("report",
                       help="run the experiment table; regenerate "
                            "BENCH_experiments.json, RESULTS.md and "
                            "EXPERIMENTS.md's numbers")
    p.add_argument("--id", action="append", default=[], metavar="ID",
                   help="run only this row (repeatable); prints, writes "
                        "nothing, fails on a document it owns that is not "
                        "the committed file")
    p.set_defaults(fn=_cmd_report)

    for row in CAMPAIGNS:
        p = sub.add_parser(row.name, help=row.help)
        for name, default, text in row.flags:
            flag = "--" + name.replace("_", "-")
            p.add_argument(flag, type=type(default), default=default,
                           help=f"{text} (default {default})")
        p.add_argument("--seed", type=int, default=0,
                       help="seed (default 0); a sweep over --seeds uses "
                            "seed..seed+seeds-1")
        p.add_argument("--sanitize", action="store_true",
                       help="run with the cross-layer invariant sanitizer "
                            "on, on every machine of the sweep")
        _add_json_flag(p, "write the report (stats, per-record outcomes, "
                          "seed-stable digest) to PATH")
        p.set_defaults(fn=_cmd_campaign, campaign=row)

    p = sub.add_parser("trace",
                       help="trace analytics: critical paths, Chrome/"
                            "flamegraph/JSONL exports, telemetry series")
    p.add_argument("mode",
                   choices=["analyze", "chrome", "flamegraph", "jsonl",
                            "series"],
                   help="analyze = critical-path report; chrome = trace-"
                        "event JSON for chrome://tracing / Perfetto; "
                        "flamegraph = collapsed folded stacks; jsonl = "
                        "records and spans as JSON lines; series = "
                        "simulated-time telemetry samples")
    p.add_argument("--config", default="C",
                   help="figure 9 configuration to run (default C)")
    p.add_argument("--file-mb", type=int, default=4)
    p.add_argument("--ops", type=int, default=256,
                   help="random operations per random phase (default 256)")
    p.add_argument("--seed", type=int, default=1991)
    p.add_argument("--phase", default="FSR",
                   choices=["FSR", "FSU", "FSW", "FRR", "FRU", "*"],
                   help="which iobench phase to trace (default FSR; "
                        "* = all five)")
    p.add_argument("--trace-jsonl", default="", metavar="PATH",
                   help="ingest this spans/records JSONL export instead "
                        "of running a benchmark (not series)")
    p.add_argument("--out", default="", metavar="PATH",
                   help="output file for chrome/flamegraph/jsonl (default "
                        "trace-chrome.json / trace.folded / trace.jsonl; "
                        "- = stdout)")
    p.add_argument("--top", type=int, default=5,
                   help="slowest requests to print in analyze (default 5)")
    p.add_argument("--interval-ms", type=float, default=10.0,
                   help="series sampling cadence in simulated ms "
                        "(default 10)")
    p.add_argument("--namespaces", default="",
                   metavar="NS[,NS...]",
                   help="metrics namespaces to sample in series "
                        "(default: every registered namespace)")
    _add_json_flag(p, "write the analyze report / series document to PATH")
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser("demo", help="guided quickstart")
    p.set_defaults(fn=_cmd_demo)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    # An output path that cannot be written is a bad argument, refused
    # before anything simulates.
    for path in {getattr(args, flag, "") for flag in ("json", "out")} - {
            "-", ""}:
        if Path(path).is_dir() or not Path(path).parent.is_dir():
            print(f"{args.command}: cannot write {path}: " + (
                "it is a directory" if Path(path).is_dir() else
                f"{Path(path).parent} is not a directory"), file=sys.stderr)
            return 2
    if not getattr(args, "sanitize", False):
        return args.fn(args)
    from repro.sim.invariants import sanitizing
    with sanitizing(True):
        return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
