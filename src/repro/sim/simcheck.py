"""The determinism differ: run a workload twice, demand identical traces.

The simulation's whole claim to being an *instrument* rests on two legs:

* every invariant the sanitizer checks actually holds while a real
  workload runs (not just in unit tests), and
* the same seed produces the same history, byte for byte — otherwise no
  campaign finding, no benchmark regression, no sanitizer report is
  diagnosable.

``python -m repro simcheck`` stands on both.  It runs IObench twice with
the same seed — sanitizer on, one phase traced — and compares a *stable
digest* of the trace/span JSONL plus the phase rates and request counts.

The JSONL is not directly comparable across runs: span, request, and buf
ids come from process-global counters that keep climbing from run to run.
:func:`stable_digest` renumbers each id space by first appearance — two
runs with the same shape and timing then digest identically, while any
divergence in ordering, timing, or structure changes the digest.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable

from repro.units import MB

#: JSONL keys holding ids from process-global counters, and the id space
#: each belongs to ("id"/"parent" are both span ids).
_ID_KEYS = (("id", "span"), ("parent", "span"),
            ("request", "request"), ("buf", "buf"))


def stable_digest(jsonl: str) -> str:
    """SHA-256 of ``jsonl`` with volatile ids renumbered by appearance.

    Each id space (span, request, buf) is remapped to 1, 2, 3… in first-
    appearance order, then every line is re-serialized with sorted keys.
    Two runs of the same deterministic workload digest identically even
    though their raw ids differ; any structural or timing divergence does
    not.
    """
    maps: dict[str, dict[Any, int]] = {"span": {}, "request": {}, "buf": {}}

    def renumber(space: str, value: Any) -> Any:
        if value is None:
            return None
        table = maps[space]
        if value not in table:
            table[value] = len(table) + 1
        return table[value]

    out = []
    for line in jsonl.splitlines():
        if not line.strip():
            continue
        obj = json.loads(line)
        for key, space in _ID_KEYS:
            if key in obj:
                obj[key] = renumber(space, obj[key])
        out.append(json.dumps(obj, sort_keys=True))
    return hashlib.sha256("\n".join(out).encode()).hexdigest()


def run_simcheck(config_name: str = "C", file_mb: int = 4,
                 random_ops: int = 256, trace_phase: str = "FSW",
                 seed: int = 1991,
                 json_path: "str | None" = None,
                 out: Callable[[str], None] = print) -> int:
    """Run the workload twice; return 0 when both legs hold.

    Leg one: the sanitizer's six checks pass at every quiesce point of
    both runs, plus a deep (fsck-backed) sweep after each.  Leg two: the
    two runs' stable trace digests, phase rates, and request counts are
    identical.  ``json_path`` writes the comparison (both runs' digests,
    rates, counts, and the verdict) as one JSON document — the CI
    artifact form.
    """
    from repro.bench.iobench import IObench
    from repro.kernel.config import SystemConfig

    def one_run() -> dict[str, Any]:
        bench = IObench(SystemConfig.by_name(config_name),
                        file_size=file_mb * MB, random_ops=random_ops,
                        seed=seed, trace_phase=trace_phase, sanitize=True)
        result = bench.run()
        system = bench.system
        assert system is not None
        # Final quiesce: flush everything, then the deep sweep (fsck's
        # walkers over the on-disk bytes, read-only).
        system.sync()
        system.sanitizer.checkpoint("simcheck_end", idle=True, deep=True)
        return {
            "digest": stable_digest(system.tracer.to_jsonl()),
            "spans": len(system.tracer.spans),
            "rates": dict(result.rates),
            "counts": dict(system.requests.stats.as_dict()),
            "checkpoints": system.sanitizer.checkpoints,
            "checks": system.sanitizer.checks_run,
        }

    first = one_run()
    second = one_run()

    out(f"simcheck: config {config_name}, {file_mb} MB file, "
        f"{random_ops} random ops, traced phase {trace_phase}")
    out(f"  sanitizer: {first['checks']} checks at "
        f"{first['checkpoints']} checkpoints per run — all passed")
    out(f"  trace: {first['spans']} spans, digest {first['digest'][:16]}…")

    failures = []
    for key in ("digest", "spans", "rates", "counts"):
        if first[key] != second[key]:
            failures.append(key)
            out(f"  MISMATCH {key}: run1={first[key]!r} run2={second[key]!r}")
    if json_path:
        from repro.obs.bench import write_json

        write_json(json_path, {
            "config": config_name,
            "file_mb": file_mb,
            "random_ops": random_ops,
            "trace_phase": trace_phase,
            "seed": seed,
            "runs": [first, second],
            "mismatched_keys": failures,
            "ok": not failures,
        }, out)
    if failures:
        out(f"simcheck FAILED: runs diverged on {', '.join(failures)}")
        return 1
    out("simcheck OK: identical digests, rates, and request counts")
    return 0


__all__ = ["stable_digest", "run_simcheck"]
