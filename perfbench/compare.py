"""``python -m perfbench compare BASE.json NEW.json``.

One row per workload x end-to-end metric: base, new (each side's best
rep), the change as a ratio of the base, and a verdict from the bounds
declared in BENCHMARK.json.  A best rep is only as credible as the
runner-up is close: the spread column is the gap between a side's two
best reps as a share of the best, the wider of the two sides.  A metric
whose spread exceeds its bound cannot be told apart from unchanged, so it
reads ``unresolved`` unless every new sample beats every base sample.
"""

from __future__ import annotations

import json

from perfbench.harness import PAPER_ERR, end_to_end_spec


def spread(samples: list[float], better: str, relative: bool) -> float:
    """Gap between the two best samples, as a share of the best unless the
    metric's bound is absolute.  A single sample has no measurable spread."""
    if len(samples) < 2:
        return 0.0
    best, runner_up = sorted(samples, reverse=better == "higher")[:2]
    gap = abs(runner_up - best)
    return gap / abs(best) if relative else gap


def judge(base: dict, new: dict, better: str, bound: float,
          relative: bool) -> tuple[str, float, float]:
    """``(verdict, worse_by, spread)``; ``worse_by`` is positive when the
    new best is worse, as a ratio of the base's (or in the metric's own
    unit for an absolute bound)."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (new["best"] - base["best"])
    if relative:
        worse_by /= abs(base["best"])
    noise = max(spread(base["samples"], better, relative),
                spread(new["samples"], better, relative))
    b, n = base["samples"], new["samples"]
    all_better = len(b) > 1 and len(n) > 1 and (
        max(n) < min(b) if better == "lower" else min(n) > max(b))
    if all_better:
        verdict = "better"
    elif noise > bound:
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "worse"
    elif worse_by < -bound:
        verdict = "better"
    else:
        verdict = "within bound"
    return verdict, worse_by, noise


def failure_share(workload: dict) -> float:
    return workload["ops_failed"] / workload["ops_attempted"]


def main(base_path: str, new_path: str, spec: dict) -> int:
    with open(base_path) as f:
        base_doc = json.load(f)
    with open(new_path) as f:
        new_doc = json.load(f)
    declared = end_to_end_spec(spec)
    bad = False
    print(f"base {base_path} @ {base_doc['env']['git_commit'][:12]}   "
          f"new {new_path} @ {new_doc['env']['git_commit'][:12]}")
    print(f"{'workload':<14} {'metric':<17} {'base':>10} {'new':>10} "
          f"{'change (worse +)':>24} {'spread':>8}  verdict")
    for name, base in base_doc["workloads"].items():
        new = new_doc["workloads"].get(name)
        if new is None:
            print(f"{name:<14} missing from {new_path}")
            bad = True
            continue
        for metric, b in base.get("end_to_end", {}).items():
            n = new["end_to_end"][metric]
            if metric == "paper_err_pct":
                better, bound, relative = (PAPER_ERR["better"],
                                           PAPER_ERR["bound_points"], False)
            else:
                better, bound, relative = (declared[metric]["better"],
                                           declared[metric]["bound"], True)
            verdict, worse_by, noise = judge(b, n, better, bound, relative)
            if relative:
                change = f"{worse_by:+.1%} of {b['best']:.4g} {b['unit']}"
                noise_text = f"{noise:.1%}"
            else:
                change = f"{worse_by:+.3f} points"
                noise_text = f"{noise:.3f}"
            print(f"{name:<14} {metric:<17} {b['best']:>10.4g} "
                  f"{n['best']:>10.4g} {change:>24} {noise_text:>8}  {verdict}")
            bad = bad or verdict == "worse"
        same = base["sim_digest"] == new["sim_digest"]
        print(f"{name:<14} sim_digest "
              f"{'same' if same else 'CHANGED: simulated behaviour changed'}; "
              f"ops_failed/ops_attempted base {base['ops_failed']}/"
              f"{base['ops_attempted']}, new {new['ops_failed']}/"
              f"{new['ops_attempted']}")
        if failure_share(new) > failure_share(base):
            print(f"{name:<14} failure share rose")
            bad = True
    return 1 if bad else 0
