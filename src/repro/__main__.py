"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``iobench [--configs ABCD] [--file-mb 16]`` — run the paper's figure 10
  benchmark and print the measured-vs-paper tables;
* ``cpubench`` — the figure 12 CPU comparison;
* ``musbus [--users 4]`` — the timesharing mix;
* ``traces`` — print the figure 3/6/7 event-trace diagrams;
* the five campaign sweeps, one row of :data:`CAMPAIGNS` each and listed
  from it at the end of this docstring — all take ``[--seed 0]
  [--sanitize] [--json [PATH]]``, exit 0 when every invariant held, 1 on
  a violated invariant or an inert injection, 2 on a bad argument;
* ``simcheck [--file-mb 4] [--json PATH]`` — the determinism differ: run
  IObench twice with the sanitizer on and demand identical stable trace
  digests;
* ``bench [--configs AC] [--json [PATH]] [--baseline PATH]`` — the
  unified perf bench: one schema-versioned BENCH.json (rates + metrics
  snapshot + layer time attribution), byte-identical across same-seed
  runs, optionally gated against a committed baseline (exit 1 on a >10%
  headline regression or attribution blowup);
* ``trace {analyze|chrome|flamegraph|series}`` — trace analytics: run a
  seeded iobench phase (or ingest an existing ``--trace-jsonl`` file)
  and either print the critical-path report with per-layer blame
  (``analyze``), export Chrome trace-event JSON for ``chrome://tracing``
  / Perfetto (``chrome``), export collapsed folded stacks for flamegraph
  tools (``flamegraph``), or record simulated-time telemetry series of
  selected metrics namespaces (``series``);
* ``demo`` — a short guided tour (quickstart + fsck).

``iobench`` and every campaign accept ``--sanitize`` to run with the
cross-layer invariant sanitizer enabled (see
``repro.sim.invariants``); the ``REPRO_SANITIZE`` environment variable
sets the default.

Every command with ``--json`` accepts it bare (or as ``--json -``) to
write the JSON document to **stdout** with all human progress routed to
stderr, so ``python -m repro <cmd> --json | jq .`` just works.
"""

from __future__ import annotations

import argparse
import sys
from importlib import import_module
from pathlib import Path
from typing import Any, Callable, Iterable, NamedTuple


def _emit(args: argparse.Namespace):
    """The human-output printer for commands that take ``--json``.

    When the JSON document itself goes to stdout (``--json -``), every
    progress/verdict line moves to stderr so stdout stays parseable.
    """
    if getattr(args, "json", "") == "-":
        return lambda *a, **k: print(*a, file=sys.stderr, **k)
    return print


def _add_json_flag(parser: argparse.ArgumentParser, help_text: str) -> None:
    parser.add_argument(
        "--json", nargs="?", const="-", default="", metavar="PATH",
        help=help_text + " (bare --json writes it to stdout; human "
                         "output then goes to stderr)")


def _presets(command: str, args: argparse.Namespace):
    """The figure 9 rows ``--configs`` names, ``--scheduler`` / ``--layout``
    applied; None (after one stderr line) when a row or the layout does
    not exist, so the command can exit 2 before it simulates anything."""
    from repro.disk.volume import VolumeSpec
    from repro.errors import InvalidArgumentError
    from repro.kernel import SystemConfig

    try:
        VolumeSpec.parse(args.layout)
        return [SystemConfig.preset(name, args.scheduler, args.layout)
                for name in args.configs.upper()]
    except (ValueError, InvalidArgumentError) as exc:
        print(f"{command}: {exc}", file=sys.stderr)
        return None


def _cmd_iobench(args: argparse.Namespace) -> int:
    from repro.bench.iobench import IObench, format_member_table
    from repro.bench.report import PAPER_FIGURE_10, compare_to_paper, ratio_table
    from repro.units import MB

    presets = _presets("iobench", args)
    if presets is None:
        return 2
    names = list(args.configs.upper())
    tracing = bool(args.trace_jsonl)
    where = f" on layout {args.layout}" if args.layout else ""
    print(f"running IObench on configurations {', '.join(names)}{where} "
          f"({args.file_mb} MB file; this simulates a few minutes of 1991)...")
    results = {}
    benches = []
    pipelines = []
    for name, preset in zip(names, presets):
        bench = IObench(preset, file_size=args.file_mb * MB,
                        trace_phase="FSR" if tracing and not benches else None,
                        sanitize=True if args.sanitize else None)
        full = bench.run()
        results[name] = full.rates
        benches.append(bench)
        if not pipelines:
            pipelines.append(full.pipeline)
    print()
    print(compare_to_paper(results, PAPER_FIGURE_10, "Figure 10 (KB/s)"))
    if len(results) > 1 and "A" in results:
        print()
        print(ratio_table(results))
    first = benches[0]
    assert first.system is not None
    report = first.system.requests.report()
    print()
    print(f"pipeline (config {names[0]}, "
          f"layout={first.system.volume.describe()}, "
          f"scheduler={first.system.driver.scheduler_name}):")
    for kind, summary in report["latency"].items():
        print(f"  {kind:10s} n={summary['count']:<6.0f} "
              f"mean={summary['mean'] * 1e3:8.3f}ms "
              f"p95={summary['p95'] * 1e3:8.3f}ms "
              f"p99={summary['p99'] * 1e3:8.3f}ms")
    members = pipelines[0].get("members") if pipelines else None
    if members:
        print(f"\nper-member pipeline (config {names[0]}):")
        print(format_member_table(members))
    if tracing:
        tracer = first.system.tracer
        lines = tracer.export_jsonl(args.trace_jsonl)
        print(f"\nwrote {lines} trace lines to {args.trace_jsonl}")
        # Show the first traced read that actually went to the disk.
        for root in tracer.span_roots():
            if root.name == "read" and root.fields.get("ios"):
                print("\none traced read, as a span tree:")
                print(tracer.render_spans(root))
                break
    return 0


def _cmd_cpubench(args: argparse.Namespace) -> int:
    from repro.bench import run_cpu_bench
    from repro.bench.report import PAPER_FIGURE_12
    from repro.kernel import SystemConfig

    for label, cfg in (("new", SystemConfig.config_a()),
                       ("old", SystemConfig.config_d())):
        r = run_cpu_bench(cfg)
        print(f"{label}: {r.cpu_seconds:.2f} CPU s "
              f"(paper: {PAPER_FIGURE_12[label]}) over {r.elapsed:.1f} s "
              f"elapsed")
    return 0


def _cmd_musbus(args: argparse.Namespace) -> int:
    from repro.bench import run_musbus
    from repro.kernel import SystemConfig

    for name in ("A", "D"):
        r = run_musbus(SystemConfig.by_name(name), users=args.users)
        print(f"config {name}: {r.elapsed:.2f} s elapsed, "
              f"{r.throughput:.2f} scripts/s")
    return 0


def _checkout_file(command: str, *parts: str) -> "Path | None":
    """A file of the checkout that holds this package (``src/repro`` sits
    two levels below its root), whatever the working directory; an
    installed package has no ``examples/`` or ``benchmarks/`` beside it."""
    path = Path(__file__).resolve().parents[2].joinpath(*parts)
    if path.is_file():
        return path
    print(f"{command}: needs a source checkout ({path} not found)",
          file=sys.stderr)
    return None


def _cmd_traces(args: argparse.Namespace) -> int:
    import subprocess

    bench = _checkout_file("traces", "benchmarks",
                           "bench_fig03_06_07_traces.py")
    if bench is None:
        return 2
    return subprocess.call([
        sys.executable, "-m", "pytest", "-q", "-s", "--benchmark-only",
        str(bench),
    ])


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.bench.collect import collect_results
    from repro.units import MB

    results = collect_results(list(args.configs.upper()),
                              file_size=args.file_mb * MB)
    text = results.to_markdown()
    if args.output:
        with open(args.output, "w") as f:
            f.write(text)
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


class CampaignCommand(NamedTuple):
    """One campaign subcommand: a row of :data:`CAMPAIGNS`.

    ``cls`` is ``module:Class``, imported at use so ``--help`` never pays
    for the simulator.  ``flags`` are ``(parameter, default, help)``: each
    constructor parameter named becomes a ``--flag`` beside ``--seed`` /
    ``--sanitize`` / ``--json``; the seed goes in as ``seed_arg``, and a
    ``ValueError`` from the constructor is a bad argument.  ``inert(stats)`` is true when a sweep
    passed without exercising what it injects; ``notes(campaign)`` yields
    extra human lines after the counters.
    """

    name: str
    help: str
    cls: str
    flags: "tuple[tuple[str, Any, str], ...]"
    failure: str
    seed_arg: str = "seed"
    inert: "Callable[[Any], bool] | None" = None
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
        "faultcampaign",
        "seeded power cuts over a write/fsync workload (torn writes, fsck "
        "repair, fsync read-back)",
        "repro.faults:CrashCampaign",
        (("cuts", 50, "number of seeded power-cut points"),
         ("trace", False, "print a per-cut trace summary")),
        "corruption or unrepaired damage detected",
        notes=lambda c: (r.describe() for r in c.trace_records
                         if r.tag == "power_cut")),
    CampaignCommand(
        "netcampaign",
        "seeded network faults over an NFS workload (drops, duplicates, "
        "corruption, partitions, server reboots: no lost acknowledged "
        "write, exactly-once mutations)",
        "repro.faults:NetCampaign",
        (("seeds", 20, "number of seeded fault schedules"),),
        "an RPC-hardening invariant was violated",
        seed_arg="base_seed",
        inert=lambda s: s.retransmits == 0 or s.drc_hits == 0),
    CampaignCommand(
        "memberkill",
        "seeded mirror-member deaths: degraded reads serve every "
        "acknowledged byte, the survivor alone is complete, resync ends "
        "byte-identical",
        "repro.faults:MirrorKillCampaign",
        (("seeds", 10, "number of seeded member kills"),),
        "a mirror-redundancy invariant was violated",
        seed_arg="base_seed"),
    CampaignCommand(
        "crashpoints",
        "every bounded-legal crash state of a workload recorded over a "
        "volatile write cache (cache subsets x torn destages): fsck-repair, "
        "remount, hold each durability point to its word",
        "repro.faults:CrashpointExplorer",
        (("preset", "smoke", "workload preset (see "
                             "repro.faults.crashpoints.PRESETS)"),
         ("max_states", 20000, "raw crash-state budget")),
        "a distinct crash state broke its durability contract",
        notes=_crashpoint_notes),
    CampaignCommand(
        "scrubcampaign",
        "seeded silent corruption (bit rot, misdirected, torn and zeroed "
        "fragments), then scrubbing: detect, repair, precise EIO, "
        "rehabilitation",
        "repro.integrity:ScrubCampaign",
        (),
        "a corruption went undetected, misrepaired, or surfaced without "
        "EIO semantics"),
)

__doc__ = (__doc__ or "") + (
    "\nCampaign commands (from ``CAMPAIGNS``):\n\n" + "".join(
        f"* ``{row.name}`` — {row.help};\n" for row in CAMPAIGNS))


def build_campaign(args: argparse.Namespace) -> Any:
    """The campaign a parsed campaign command line asks for."""
    row: CampaignCommand = args.campaign
    module, _, cls = row.cls.partition(":")
    kwargs = {name: getattr(args, name) for name, _, _ in row.flags}
    kwargs[row.seed_arg] = args.seed
    return getattr(import_module(module), cls)(
        sanitize=True if args.sanitize else None, **kwargs)


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.obs.bench import write_json

    row: CampaignCommand = args.campaign
    say = _emit(args)
    try:
        campaign = build_campaign(args)
    except ValueError as exc:
        print(f"{row.name}: {exc}", file=sys.stderr)
        return 2
    say(f"{row.name} (seed={args.seed}): {row.help}...")
    stats = campaign.run()
    say(stats)
    say(f"{'digest':26} {campaign.digest}")
    for line in (row.notes(campaign) if row.notes else ()):
        say(line)
    if args.json:
        write_json(args.json, campaign.to_json(), say)
    if not stats.ok:
        say(f"FAILED: {row.failure}")
        return 1
    if row.inert is not None and row.inert(stats):
        say("FAILED: the sweep never exercised what it injects (fault "
            "injection inert?)")
        return 1
    say("OK: every invariant the sweep checks held")
    return 0


def _cmd_simcheck(args: argparse.Namespace) -> int:
    from repro.sim.simcheck import run_simcheck

    return run_simcheck(config_name=args.config.upper(),
                        file_mb=args.file_mb, random_ops=args.ops,
                        trace_phase=args.trace_phase, seed=args.seed,
                        json_path=args.json or None, out=_emit(args))


def _cmd_bench(args: argparse.Namespace) -> int:
    import json

    from repro.obs.bench import diff_documents, run_bench, write_json
    from repro.obs.gate import check_gate

    if _presets("bench", args) is None:
        return 2
    baseline = None
    if args.baseline:
        try:
            with open(args.baseline) as fh:
                baseline = json.load(fh)
            if not isinstance(baseline, dict):
                raise ValueError("not a JSON object")
        except (OSError, ValueError) as exc:
            print(f"bench: baseline {args.baseline}: {exc}", file=sys.stderr)
            return 2
    say = _emit(args)
    say(f"running the unified bench on configurations "
        f"{', '.join(args.configs.upper())} ({args.file_mb} MB file, "
        f"{args.ops} random ops, seed {args.seed}; tracing every phase)...")
    document = run_bench(configs=args.configs.upper(), file_mb=args.file_mb,
                         random_ops=args.ops, seed=args.seed,
                         scheduler=args.scheduler or None,
                         layout=args.layout or None, out=say)
    say(f"bench id {document['id']}")
    if args.json:
        write_json(args.json, document, say)
    if baseline is None:
        return 0
    if args.diff:
        lines = diff_documents(baseline, document)
        say(f"diff against {args.baseline} (baseline -> current):")
        for line in lines or ["  (documents agree)"]:
            say(f"  {line}" if not line.startswith("  ") else line)
    gate = check_gate(document, baseline,
                      rate_tolerance=args.rate_tolerance,
                      share_tolerance=args.share_tolerance)
    say(gate.render())
    return 0 if gate.ok else 1


def _trace_bench(args: argparse.Namespace, say,
                 telemetry_interval: "float | None" = None,
                 telemetry_namespaces: "list[str] | None" = None):
    """Run the seeded iobench the trace subcommands analyze; returns the
    bench (its system carries the tracer and any telemetry recorder)."""
    from repro.bench.iobench import IObench
    from repro.kernel import SystemConfig
    from repro.units import MB

    say(f"running IObench config {args.config.upper()} "
        f"({args.file_mb} MB file, {args.ops} random ops, "
        f"seed {args.seed}; tracing phase {args.phase})...")
    bench = IObench(SystemConfig.by_name(args.config.upper()),
                    file_size=args.file_mb * MB, random_ops=args.ops,
                    seed=args.seed, trace_phase=args.phase,
                    telemetry_interval=telemetry_interval,
                    telemetry_namespaces=telemetry_namespaces)
    bench.run()
    return bench


def _trace_source(args: argparse.Namespace, say):
    """The tracer to analyze: an ingested ``--trace-jsonl`` file, or a
    fresh seeded iobench run.  None (after one stderr line) when the file
    is unreadable or not a complete trace."""
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
    assert bench.system is not None
    return bench.system.tracer


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.bench import write_json, write_text
    from repro.obs.critpath import (
        critical_paths, verify_against_attribution, verify_conservation,
    )
    from repro.obs.export import chrome_trace_json, folded_stacks

    say = _emit(args)

    if args.mode == "series":
        if args.trace_jsonl:
            print("trace series: needs a live run (telemetry samples the "
                  "machine, not a trace file); drop --trace-jsonl",
                  file=sys.stderr)
            return 2
        namespaces = ([ns.strip() for ns in args.namespaces.split(",")
                       if ns.strip()] if args.namespaces else None)
        bench = _trace_bench(args, say,
                             telemetry_interval=args.interval_ms / 1e3,
                             telemetry_namespaces=namespaces)
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
    p.add_argument("--trace-jsonl", default="", metavar="PATH",
                   help="trace the sequential-read phase of the first "
                        "config; write records+spans as JSON lines to PATH")
    p.add_argument("--sanitize", action="store_true",
                   help="run with the cross-layer invariant sanitizer on")
    p.set_defaults(fn=_cmd_iobench)

    p = sub.add_parser("cpubench", help="figure 12 CPU comparison")
    p.set_defaults(fn=_cmd_cpubench)

    p = sub.add_parser("musbus", help="timesharing mix")
    p.add_argument("--users", type=int, default=4)
    p.set_defaults(fn=_cmd_musbus)

    p = sub.add_parser("traces", help="figure 3/6/7 trace diagrams")
    p.set_defaults(fn=_cmd_traces)

    p = sub.add_parser("report", help="regenerate RESULTS.md")
    p.add_argument("--configs", default="ABCD")
    p.add_argument("--file-mb", type=int, default=16)
    p.add_argument("--output", default="")
    p.set_defaults(fn=_cmd_report)

    for row in CAMPAIGNS:
        p = sub.add_parser(row.name, help=row.help)
        for name, default, text in row.flags:
            flag = "--" + name.replace("_", "-")
            if default is False:
                p.add_argument(flag, action="store_true", help=text)
            else:
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

    p = sub.add_parser("simcheck",
                       help="determinism differ + sanitized benchmark run")
    p.add_argument("--config", default="C",
                   help="figure 9 configuration to run (default C)")
    p.add_argument("--file-mb", type=int, default=4)
    p.add_argument("--ops", type=int, default=256,
                   help="random operations per random phase (default 256)")
    p.add_argument("--trace-phase", default="FSW",
                   choices=["FSR", "FSU", "FSW", "FRR", "FRU"],
                   help="which phase to trace and digest (default FSW)")
    p.add_argument("--seed", type=int, default=1991)
    _add_json_flag(p, "write both runs' digests/rates/counts and the "
                      "verdict to PATH")
    p.set_defaults(fn=_cmd_simcheck)

    p = sub.add_parser("bench",
                       help="unified perf bench: BENCH.json + optional "
                            "gate against a committed baseline")
    p.add_argument("--configs", default="AC",
                   help="figure 9 configurations to run (default AC)")
    p.add_argument("--file-mb", type=int, default=4)
    p.add_argument("--ops", type=int, default=512,
                   help="random operations per random phase (default 512)")
    p.add_argument("--seed", type=int, default=1991)
    p.add_argument("--scheduler", default="",
                   choices=["", "elevator", "fifo", "deadline"],
                   help="override the disk scheduler for every config")
    p.add_argument("--layout", default="",
                   help="override the block-device layout for every config")
    p.add_argument("--baseline", default="", metavar="PATH",
                   help="gate against this committed BENCH.json; exit 1 "
                        "on regression")
    p.add_argument("--diff", action="store_true",
                   help="print per-quantity deltas against the baseline")
    p.add_argument("--rate-tolerance", type=float, default=0.10,
                   help="allowed headline-rate drop (default 0.10)")
    p.add_argument("--share-tolerance", type=float, default=0.10,
                   help="allowed attribution-share growth (default 0.10)")
    _add_json_flag(p, "write the BENCH document to PATH")
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("trace",
                       help="trace analytics: critical paths, Chrome/"
                            "flamegraph exports, telemetry series")
    p.add_argument("mode",
                   choices=["analyze", "chrome", "flamegraph", "series"],
                   help="analyze = critical-path report; chrome = trace-"
                        "event JSON for chrome://tracing / Perfetto; "
                        "flamegraph = collapsed folded stacks; series = "
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
                        "of running a benchmark (analyze/chrome/"
                        "flamegraph only)")
    p.add_argument("--out", default="", metavar="PATH",
                   help="output file for chrome/flamegraph (default "
                        "trace-chrome.json / trace.folded; - = stdout)")
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
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
