"""Run one workload: reps, correctness, digests, metrics by name.

A rep is ``setup`` (host-timed as ``setup_s``), the timed section
(``wall_s``), then ``verify`` outside any timer.  An untraced run repeats
reps until ``seconds`` of host time are spent (at least three: the best
rep is the headline, and the same-seed determinism check needs something
to compare); a traced run does
one untraced rep and one rep under :class:`~perfbench.slicetimer.
SliceTimer`.  End-to-end metrics come only from untraced reps, host-time
per-layer metrics only from the traced one.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import re
import resource
import statistics
import subprocess
from dataclasses import dataclass
from time import perf_counter
from typing import Any

from perfbench import ROOT
from perfbench.calibrate import REFERENCE_S, calibrate
from perfbench.slicetimer import SliceTimer
from perfbench.workloads import FULL, WORKLOADS, Outcome, Size
from repro.bench.iobench import PHASES

SCHEMA = "perfbench/v1"
MIN_REPS = 3

#: ``paper_err_pct`` is an end-to-end metric of the two iobench workloads
#: only, with an absolute bound (percentage points), so BENCHMARK.json —
#: whose end-to-end metrics are reported by every workload under relative
#: bounds — lists it per layer as ``bench.paper_err_pct``.
PAPER_ERR = {"unit": "%", "better": "lower", "bound_points": 0.5}


def load_spec() -> dict:
    """BENCHMARK.json: the one declaration of names, units and bounds."""
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def end_to_end_spec(spec: dict) -> dict[str, dict]:
    return {m["name"]: m for m in spec["end_to_end"]}


def per_layer_units(spec: dict) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def sim_digest(sim: dict) -> str:
    text = json.dumps(sim, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# per-layer group (a): simulated counters, exact for a seed


def layer_counters(outcome: Outcome) -> dict[str, float]:
    """Additive counters are summed over the outcome's machines (and over
    volume members); gauges and percentiles come from the first machine
    that has them, which is the one with the disk."""
    snaps = [s.metrics.snapshot() for s in outcome.systems]

    def total(pattern: str, key: str) -> float:
        return sum(values.get(key, 0) for snap in snaps
                   for ns, values in snap.items() if re.fullmatch(pattern, ns))

    def first(*path: str) -> float:
        for snap in snaps:
            node: Any = snap
            for step in path:
                node = node.get(step) if isinstance(node, dict) else None
            if node is not None:
                return node
        return 0.0

    def first_of(namespaces: tuple[str, ...], key: str) -> float:
        for ns in namespaces:
            if any(ns in snap for snap in snaps):
                return first(ns, key)
        return 0.0

    def ms(kind: str, pct: str) -> float:
        return 1e3 * first("requests.latency", kind, pct)

    driver, mech, wcache = (rf"disk(\.m\d+)?\.{part}"
                            for part in ("driver", "mech", "wcache"))
    hits = total("vm.pagecache", "hits")
    misses = total("vm.pagecache", "misses")
    requests = total(driver, "requests")
    rates = outcome.extra.get("rates", {})
    nfs = outcome.extra.get("nfs_stats")
    tracer = outcome.extra.get("tracer")
    primary = outcome.systems[0]
    counters = {
        "sim.sim_s": outcome.sim_s,
        "cpu.system_s": sum(s.cpu.system_time for s in outcome.systems),
        "cpu.util": primary.cpu.utilization(),
        "kernel.requests_started": total("requests", "started"),
        "kernel.requests_errors": total("requests", "errors"),
        "kernel.read_p50_ms": ms("read", "p50"),
        "kernel.read_p99_ms": ms("read", "p99"),
        "kernel.write_p50_ms": ms("write", "p50"),
        "kernel.write_p99_ms": ms("write", "p99"),
        "kernel.fsync_p50_ms": ms("fsync", "p50"),
        "ufs.read_ios": total("ufs", "read_ios"),
        "ufs.write_ios": total("ufs", "write_ios"),
        "ufs.readaheads": total("ufs", "readaheads"),
        "ufs.getpage_io_waits": total("ufs", "getpage_io_waits"),
        "ufs.throttle_sleeps": total(r"ufs\.throttle", "sleeps"),
        "ufs.metacache_hits": total(r"ufs\.metacache", "hits"),
        "ufs.metacache_misses": total(r"ufs\.metacache", "misses"),
        "ufs.metacache_sync_writes": total(r"ufs\.metacache", "sync_writes"),
        "ufs.metacache_delayed_writes":
            total(r"ufs\.metacache", "delayed_writes"),
        "vm.pagecache_hits": hits,
        "vm.pagecache_misses": misses,
        "vm.pagecache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "vm.pagecache_allocations": total("vm.pagecache", "allocations"),
        "vm.pagecache_destroyed": total("vm.pagecache", "destroyed"),
        "vm.freemem_min": min(snap["vm.freemem"]["min"] for snap in snaps),
        "disk.requests": requests,
        "disk.bytes": total(driver, "bytes"),
        "disk.avg_io_kb":
            total(driver, "bytes") / requests / 1024 if requests else 0.0,
        "disk.queue_depth_avg": first_of(
            ("volume.queue_depth", "disk.driver.queue_depth"), "avg"),
        "disk.wait_p50_ms": 1e3 * first_of(
            ("volume.wait", "disk.driver.wait"), "p50"),
        "disk.service_p50_ms": 1e3 * first_of(
            ("volume.service", "disk.driver.service"), "p50"),
        "disk.seeks": total(mech, "seeks"),
        "disk.seek_s": total(mech, "seek_time"),
        "disk.rotational_wait_s": total(mech, "rotational_wait"),
        "disk.transfer_s": total(mech, "transfer_time"),
        "disk.buffer_hits": total(mech, "buffer_hits"),
        "disk.volume_fanout_children": total("volume", "fanout_children"),
        "disk.wcache_destages": total(wcache, "destages"),
        "disk.wcache_flushes": total(wcache, "flushes"),
        "obs.spans": len(tracer.spans) if tracer is not None else 0,
        "obs.roots": len(tracer.span_roots()) if tracer is not None else 0,
        "bench.paper_err_pct": outcome.extra.get("paper_err_pct", 0.0),
    }
    for key in ("rpcs", "retransmits", "rpc_timeouts", "cache_hits"):
        counters[f"nfs.{key}"] = nfs[key] if nfs is not None else 0
    for phase in PHASES:
        counters[f"bench.{phase}_kbs"] = rates.get(phase, 0.0)
    return counters


def ops(outcome: Outcome) -> tuple[int, int]:
    """Syscall-level requests (attempted, failed): failed are the ones
    that completed with an error or never completed."""
    attempted = failed = 0
    for system in outcome.systems:
        attempted += int(system.requests.stats["started"])
        failed += int(system.requests.stats["errors"]) + len(system.requests.open)
    return attempted, failed


# ---------------------------------------------------------------------------
# per-layer group (b): host time, from the traced rep only

VNODE_SCANS = ("PageCache.vnode_pages", "PageCache.dirty_pages")
HOST_STAGES = {
    "ufs.mkfs_s": "System.mkfs",
    "ufs.fsck_s": "fsck",
    "obs.attrib_s": "attribution_table",
    "obs.critpath_s": "critical_paths",
    "obs.chrome_s": "chrome_trace_json",
    "obs.folded_s": "folded_stacks",
    "obs.jsonl_s": "Tracer.to_jsonl",
    "obs.snapshot_s": "MetricsRegistry.snapshot",
}


def host_metrics(timer: SliceTimer, traced_wall_s: float,
                 untraced_wall_s: float) -> dict[str, float]:
    metrics: dict[str, float] = {}
    for layer, row in timer.by_layer().items():
        metrics[f"{layer}.host_self_s"] = row["self_s"]
        metrics[f"{layer}.host_share"] = row["self_s"] / traced_wall_s
        metrics[f"{layer}.calls"] = row["calls"]
    steps = timer.calls("Engine.step")
    metrics["sim.engine_steps"] = steps
    # The simulator's speed, so divided by the wall of the rep that did
    # not pay for tracing.
    metrics["sim.steps_per_wall_s"] = steps / untraced_wall_s
    metrics["vm.vnode_scan_calls"] = timer.calls(*VNODE_SCANS)
    metrics["vm.vnode_scan_self_s"] = timer.self_s(*VNODE_SCANS)
    for name, entry_point in HOST_STAGES.items():
        metrics[name] = timer.inclusive_s(entry_point)
    metrics["trace_overhead_ratio"] = traced_wall_s / untraced_wall_s
    return metrics


# ---------------------------------------------------------------------------
# reps


@dataclass
class Rep:
    setup_s: float
    wall_s: float
    sim_s: float
    digest: str
    counters: dict[str, float]
    attempted: int
    failed: int
    failures: list[str]
    #: Only workloads with a row in the paper's figure 10 have one.
    paper_err_pct: "float | None"
    #: Traced reps only.
    host: "dict[str, float] | None" = None


def run_rep(workload, seed: int, size: Size,
            timer: "SliceTimer | None" = None,
            untraced_wall_s: float = 0.0, tamper=None) -> Rep:
    """One rep; under ``timer`` set-up and the timed section run with the
    probes installed.  ``tamper(state, outcome)`` runs between the timed
    section and ``verify`` — the selftest corrupts a read-back with it."""
    host = None
    if timer is not None:
        timer.install()
    try:
        gc.collect()
        t0 = perf_counter()
        state = workload.setup(seed, size)
        setup_s = perf_counter() - t0
        gc.collect()
        if timer is None:
            t0 = perf_counter()
            outcome = workload.timed(state)
            wall_s = perf_counter() - t0
        else:
            mkfs_setup_s = timer.inclusive_s("System.mkfs")
            timer.reset()  # counts and spans cover the timed section only
            t0 = perf_counter()
            with timer.section("perfbench.timed", "bench"):
                outcome = workload.timed(state)
            wall_s = perf_counter() - t0
            host = host_metrics(timer, wall_s, untraced_wall_s)
            # mkfs mostly runs in set-up, so this one metric covers both.
            host["ufs.mkfs_s"] += mkfs_setup_s
    finally:
        if timer is not None:
            timer.uninstall()
    digest = sim_digest(outcome.sim)
    counters = layer_counters(outcome)
    attempted, failed = ops(outcome)
    if tamper is not None:
        tamper(state, outcome)
    checks = workload.verify(state, outcome)
    failures = [f"{c.name}: {c.detail}" for c in checks if not c.ok]
    return Rep(setup_s, wall_s, outcome.sim_s, digest, counters,
               attempted + len(checks), failed + len(failures), failures,
               outcome.extra.get("paper_err_pct"), host)


def summary(metric: dict, samples: list[float]) -> dict:
    """``best`` is the headline: a rep repeats the same deterministic work,
    so whatever makes one slower than the fastest is interference, which
    only ever adds time.  Median, min, max and n are for judging how much
    of it there was; a run has too few reps for a percentile."""
    return {"unit": metric["unit"],
            "best": min(samples) if metric["better"] == "lower" else max(samples),
            "median": statistics.median(samples),
            "min": min(samples), "max": max(samples), "n": len(samples),
            "samples": samples}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KB on Linux


def run_workload(name: str, seed: int, seconds: float, size: Size = FULL,
                 trace: bool = False, trace_out: "str | None" = None,
                 min_reps: int = MIN_REPS) -> dict:
    """Run one workload in this process; returns its result document."""
    workload = WORKLOADS[name]
    declared = end_to_end_spec(load_spec())
    reps: list[Rep] = []
    doc: dict[str, Any] = {"workload": name, "seed": seed, "traced": trace}
    if trace:
        reps.append(run_rep(workload, seed, size))
        timer = SliceTimer()
        reps.append(run_rep(workload, seed, size, timer, reps[0].wall_s))
        doc["per_layer"] = {**reps[0].counters, **reps[1].host}
        doc["untraced_wall_s"] = reps[0].wall_s
        doc["traced_wall_s"] = reps[1].wall_s
        doc["probes_missing"] = timer.missing
        doc["spans_dropped"] = timer.dropped
        if trace_out is not None:
            with open(trace_out, "w") as f:
                json.dump(timer.chrome_trace(), f)
    else:
        start = perf_counter()
        calibration = [calibrate()]
        while len(reps) < min_reps or perf_counter() - start < seconds:
            reps.append(run_rep(workload, seed, size))
            calibration.append(calibrate())
        # Host times are reported relative to the reference loop timed
        # between the reps (see perfbench/calibrate.py): machine-speed
        # drift moves both alike, so it cancels.
        speed = REFERENCE_S / min(calibration)
        walls = [r.wall_s * speed for r in reps]
        end_to_end = {
            "wall_s": summary(declared["wall_s"], walls),
            "sim_s_per_wall_s": summary(
                declared["sim_s_per_wall_s"],
                [r.sim_s / wall for r, wall in zip(reps, walls)]),
            "setup_s": summary(declared["setup_s"],
                               [r.setup_s * speed for r in reps]),
            "peak_rss_mb": summary(declared["peak_rss_mb"], [peak_rss_mb()]),
        }
        doc["host_raw"] = {
            "wall_s": [r.wall_s for r in reps],
            "setup_s": [r.setup_s for r in reps],
            "calibration_s": calibration,
            "calibration_reference_s": REFERENCE_S,
        }
        if reps[0].paper_err_pct is not None:
            end_to_end["paper_err_pct"] = summary(
                PAPER_ERR, [r.paper_err_pct for r in reps])
        doc["end_to_end"] = end_to_end
        doc["per_layer"] = reps[0].counters
    failures = [f for r in reps for f in r.failures]
    failed = sum(r.failed for r in reps)
    if len({r.digest for r in reps}) != 1:
        # Same seed, same process: simulated behaviour must repeat exactly
        # (and tracing must not change it).
        failures.append("sim_digest differs between reps: "
                        + ", ".join(r.digest[:12] for r in reps))
        failed += 1
    doc.update(reps=len(reps), sim_digest=reps[0].digest,
               # + 1: the digest agreement is itself a checked operation.
               ops_attempted=sum(r.attempted for r in reps) + 1,
               ops_failed=failed, checks_failed=failures,
               correct=not failures and failed == 0)
    return doc


# ---------------------------------------------------------------------------
# documents and printing


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"  # an exported checkout: never ask a parent directory
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def document(workloads: dict[str, dict], seed: int, seconds: float) -> dict:
    return {
        "schema": SCHEMA,
        "env": {"seed": seed, "seconds": seconds, "nproc": os.cpu_count(),
                "python": platform.python_version(),
                "git_commit": git_commit(),
                "reps": {n: w["reps"] for n, w in workloads.items()}},
        "workloads": workloads,
    }


def print_workload(doc: dict, spec: dict) -> None:
    """Every metric by name, with unit; host and sim clocks are in the units."""
    name = doc["workload"]
    print(f"== {name}  seed={doc['seed']} reps={doc['reps']} "
          f"{'traced' if doc['traced'] else 'untraced'}")
    for metric, s in doc.get("end_to_end", {}).items():
        print(f"{name}  {metric:<18} best {s['best']:.6g} {s['unit']}  "
              f"(median {s['median']:.6g}, min {s['min']:.6g}, "
              f"max {s['max']:.6g}, n={s['n']})")
    units = per_layer_units(spec)
    for metric, value in doc["per_layer"].items():
        print(f"{name}  {metric:<30} {value:.6g} {units[metric]}")
    print(f"{name}  sim_digest {doc['sim_digest']}")
    print(f"{name}  ops_failed/ops_attempted "
          f"{doc['ops_failed']}/{doc['ops_attempted']}")
    for missing in doc.get("probes_missing", []):
        print(f"{name}  probe not found, layer time not split there: {missing}")
    for failure in doc["checks_failed"]:
        print(f"{name}  FAILED {failure}")


def contract_line(doc: dict, spec: dict) -> str:
    """The one-JSON-object last line the benchmark driver reads."""
    if doc["traced"]:
        metrics = {m: {"value": doc["per_layer"][m], "unit": unit}
                   for m, unit in per_layer_units(spec).items()}
    else:
        metrics = {m: {"value": doc["end_to_end"][m]["best"],
                       "unit": s["unit"]}
                   for m, s in end_to_end_spec(spec).items()}
    return json.dumps({"correct": doc["correct"],
                       "attempted": doc["ops_attempted"],
                       "failed": doc["ops_failed"], "metrics": metrics})
