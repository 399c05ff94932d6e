"""``python -m perfbench {run,trace,compare,selftest}``.

``run --workload NAME`` is also the command BENCHMARK.json names: after
the human-readable metric lines, the last line of standard output is one
JSON object (``correct``, ``attempted``, ``failed``, ``metrics``).
Results go to standard output or to ``--json``/``--out`` paths, never to
a file inside the repo by default.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from perfbench import ROOT


def _add_run_arguments(parser: argparse.ArgumentParser, spec: dict) -> None:
    names = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1991)
    parser.add_argument("--json", metavar="PATH",
                        help="also write the full result document here")


def build_parser(spec: dict) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m perfbench",
                                     description=__doc__.split("\n\n")[1])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one workload in this process, "
                         "or --all in one child process each")
    _add_run_arguments(run, spec)
    run.add_argument("--all", action="store_true",
                     help="every workload, one child interpreter after another")
    run.add_argument("--seconds", type=float, default=spec["run_seconds"],
                     help="host seconds of reps per workload (at least three reps)")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0,
                     help="1: one untraced and one traced rep; prints the "
                     "per-layer metrics instead of the end-to-end ones")
    run.add_argument("--out", metavar="FILE",
                     help="with --trace 1: write the Chrome trace here")

    trace = sub.add_parser("trace", help="run --trace 1 with a Chrome trace")
    _add_run_arguments(trace, spec)
    trace.add_argument("--out", metavar="FILE", required=True)
    trace.set_defaults(trace=1, all=False, seconds=spec["run_seconds"])

    compare = sub.add_parser("compare", help="verdict per workload x "
                             "end-to-end metric for two result documents")
    compare.add_argument("base")
    compare.add_argument("new")

    sub.add_parser("selftest", help="every workload at toy size, plus the "
                   "harness's own invariants")
    return parser


def _run_all(args, spec: dict) -> dict:
    """One child interpreter per workload, strictly one after another, so
    peak RSS, import cost and heap state never leak between workloads."""
    from perfbench.harness import document

    workloads = {}
    with tempfile.TemporaryDirectory(prefix="perfbench-") as tmp:
        for w in spec["workloads"]:
            path = Path(tmp) / f"{w['name']}.json"
            command = [sys.executable, "-m", "perfbench", "run",
                       "--workload", w["name"], "--seed", str(args.seed),
                       "--seconds", str(args.seconds),
                       "--trace", str(args.trace), "--json", str(path)]
            subprocess.run(command, cwd=ROOT, check=False)
            if not path.exists():
                raise SystemExit(f"perfbench: {w['name']} produced no result")
            with open(path) as f:
                workloads.update(json.load(f)["workloads"])
    return document(workloads, args.seed, args.seconds)


def _cmd_run(args, spec: dict) -> int:
    from perfbench.harness import (
        contract_line, document, print_workload, run_workload,
    )

    if args.all:
        doc = _run_all(args, spec)
    elif args.workload is None:
        raise SystemExit("perfbench: give --workload NAME or --all")
    else:
        result = run_workload(args.workload, args.seed, args.seconds,
                              trace=bool(args.trace), trace_out=args.out)
        print_workload(result, spec)
        doc = document({args.workload: result}, args.seed, args.seconds)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")
    correct = all(w["correct"] for w in doc["workloads"].values())
    if len(doc["workloads"]) == 1:
        print(contract_line(next(iter(doc["workloads"].values())), spec))
    return 0 if correct else 1


def main(argv: "list[str] | None" = None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        # perfbench measures the checkout it sits in, never an installed copy.
        print(f"perfbench: no simulator at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    from perfbench.harness import load_spec

    spec = load_spec()
    args = build_parser(spec).parse_args(argv)
    if args.command in ("run", "trace"):
        return _cmd_run(args, spec)
    if args.command == "compare":
        from perfbench.compare import main as compare_main

        return compare_main(args.base, args.new, spec)
    from perfbench.selftest import main as selftest_main

    return selftest_main(spec)
