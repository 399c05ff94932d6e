"""``python -m perfbench selftest``: the harness checks itself.

Every workload runs at toy size (1 MB files, 64 random ops).  Not part of
the tier-1 suite (``testpaths = tests``); it is the benchmark's own guard
that names, digests, failure counting and the slice timer's arithmetic
hold before anyone trusts a number from it.
"""

from __future__ import annotations

import re
from time import perf_counter

from perfbench.harness import end_to_end_spec, run_rep, run_workload
from perfbench.slicetimer import LAYERS
from perfbench.workloads import TOY, WORKLOADS

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SEED = 1991


def _flip_first_byte(data: bytes) -> bytes:
    return bytes([data[0] ^ 0xFF]) + data[1:]


def _corrupt_payload(state, outcome) -> None:
    # verify() writes this, evicts it and reads it back against the digest
    # taken at set-up, so the read-back no longer matches.
    state["payload"] = _flip_first_byte(state["payload"])


def _corrupt_file(state, outcome) -> None:
    path = sorted(outcome.extra["files"])[0]
    outcome.extra["files"][path] = _flip_first_byte(outcome.extra["files"][path])


def _corrupt_chunk(state, outcome) -> None:
    outcome.extra["chunks"][0] = _flip_first_byte(outcome.extra["chunks"][0])


#: How to corrupt each workload's read-back (``trace_analyze`` has none).
TAMPER = {
    "iobench_A": _corrupt_payload,
    "iobench_D": _corrupt_payload,
    "meta_churn": _corrupt_file,
    "nfs_stripe": _corrupt_chunk,
}


def main(spec: dict) -> int:
    started = perf_counter()
    problems: list[str] = []

    def expect(ok: bool, message: str) -> None:
        if not ok:
            problems.append(message)

    declared_workloads = [w["name"] for w in spec["workloads"]]
    expect(declared_workloads == list(WORKLOADS),
           f"workloads {list(WORKLOADS)} != BENCHMARK.json {declared_workloads}")
    declared_e2e = set(end_to_end_spec(spec))
    declared_layer = {m["name"] for m in spec["per_layer"]}
    for name in [*declared_workloads, *declared_e2e, *declared_layer]:
        expect(NAME.fullmatch(name) is not None, f"bad name {name!r}")

    for name, workload in WORKLOADS.items():
        plain = run_workload(name, SEED, seconds=0.0, size=TOY, min_reps=1)
        expect(plain["correct"], f"{name}: {plain['checks_failed']}")
        emitted = set(plain["end_to_end"]) - {"paper_err_pct"}
        expect(emitted == declared_e2e,
               f"{name}: end-to-end names {sorted(emitted ^ declared_e2e)} "
               "not as declared")
        expect(("paper_err_pct" in plain["end_to_end"])
               == name.startswith("iobench_"),
               f"{name}: paper_err_pct on the wrong workload")

        traced = run_workload(name, SEED, seconds=0.0, size=TOY, trace=True)
        expect(traced["correct"], f"{name} traced: {traced['checks_failed']}")
        expect(not traced["probes_missing"],
               f"{name}: probes not found {traced['probes_missing']}")
        expect(set(traced["per_layer"]) == declared_layer,
               f"{name}: per-layer names "
               f"{sorted(set(traced['per_layer']) ^ declared_layer)} "
               "not as declared")
        # Three same-seed reps by now: run_workload fails the traced run if
        # its untraced and traced reps disagree, and both must match plain's.
        expect(traced["sim_digest"] == plain["sim_digest"],
               f"{name}: same seed, different sim_digest")
        attributed = sum(traced["per_layer"][f"{layer}.host_self_s"]
                         for layer in LAYERS)
        wall = traced["traced_wall_s"]
        expect(abs(attributed - wall) <= 0.02 * wall,
               f"{name}: layer self times sum to {attributed:.6f} s, "
               f"traced wall is {wall:.6f} s")

        # One more rep does double duty: another seed must change the
        # digest (taken before tampering), and a corrupted read-back must
        # be counted as a failed operation.
        other = run_rep(workload, SEED + 1, TOY, tamper=TAMPER.get(name))
        expect(other.digest != plain["sim_digest"],
               f"{name}: seed {SEED + 1} gave the digest of seed {SEED}")
        if name in TAMPER:
            expect(other.failed >= 1,
                   f"{name}: corrupted read-back not counted in ops_failed "
                   f"({other.failed}/{other.attempted})")
        else:
            expect(other.failed == 0, f"{name}: {other.failures}")
        print(f"selftest {name}: {'ok' if not problems else 'see below'}")

    for problem in problems:
        print(f"selftest FAILED {problem}")
    print(f"selftest: {len(problems)} problem(s) in "
          f"{perf_counter() - started:.1f} s")
    return 1 if problems else 0
