"""The five workloads, each a (setup, timed, verify) triple.

``setup`` builds what the timed section needs and generates every payload
from the seed; its host time is ``setup_s``.  ``timed`` is the measured
section.  ``verify`` runs outside the timer and returns one
:class:`Check` per correctness condition; a failed check is a failed
operation.  The seed reaches the simulator only as generated inputs
(``IObench(seed=)``, payload bytes, file sizes): no workload name or seed
is visible to code under ``src/``.

Why these five is argued in ``perfbench/README.md``; in one line each:

* ``iobench_A``  — the paper's headline row: 120 KB clusters, few disk
  events per MB, the largest ``ufs``/``core`` share.
* ``iobench_D``  — same layers, old code path: 8 KB I/Os, no write limit,
  pageout daemon active; most engine steps per byte.
* ``meta_churn`` — metadata, not data: the cost shape of the test suite
  and every campaign (boot, small files, fsck, remount).
* ``nfs_stripe`` — the only one that enters ``nfs``, volume fan-out, the
  write cache and ``integrity``.
* ``trace_analyze`` — ``obs`` does all the work and the simulator none.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from typing import Any

from repro import obs, ufs
from repro.bench.agefs import measure_extents
from repro.bench.iobench import PHASES, IObench
from repro.bench.report import PAPER_FIGURE_10
from repro.errors import ReproError
from repro.kernel import Proc, System, SystemConfig
from repro.nfs import build_world
from repro.nfs.net import ETHERNET_10MBIT
from repro.units import KB, MB


@dataclass(frozen=True)
class Size:
    """How much work one rep does.  ``FULL`` is the benchmark; ``TOY`` is
    the selftest's, small enough to run everything in seconds."""

    file_mb: int = 16
    random_ops: int = 2048
    verify_kb: int = 1024
    churn_files: int = 48  # per directory; 4 procs x 4 dirs
    nfs_mb: int = 16
    trace_file_mb: int = 8
    trace_random_ops: int = 1024
    trace_rounds: int = 3


FULL = Size()
TOY = Size(file_mb=1, random_ops=64, verify_kb=64, churn_files=6, nfs_mb=1,
           trace_file_mb=1, trace_random_ops=64, trace_rounds=1)


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class Outcome:
    """What one timed section produced."""

    #: Simulated seconds the timed section advanced (or analysed).
    sim_s: float
    #: Every simulated number of the rep; its canonical JSON is hashed
    #: into ``sim_digest``.
    sim: dict
    #: The machines whose counters feed the per-layer metrics, the one
    #: with the disk first.
    systems: list
    #: Things ``verify`` and the per-layer counters need (rates, read-back
    #: bytes, the NFS mount, the tracer).
    extra: dict = field(default_factory=dict)


def machine_numbers(system: System) -> dict:
    """One machine's simulated state: every registered metric + the clock."""
    return {"now": system.now, "metrics": system.metrics.snapshot()}


def evict(system: System, vnode, readahead) -> None:
    """Drop a file's clean cached pages so the next read goes to disk."""
    for page in system.pagecache.vnode_pages(vnode):
        if not page.locked and not page.dirty:
            system.pagecache.destroy(page)
    readahead.reset()


def paper_err_pct(config_name: str, rates: dict) -> float:
    """Mean over the five phases of |ours - paper| / paper, in percent."""
    paper = PAPER_FIGURE_10[config_name]
    return 100.0 * sum(abs(rates[p] - paper[p]) / paper[p]
                       for p in PHASES) / len(PHASES)


# ---------------------------------------------------------------------------
# iobench_A / iobench_D


class IobenchWorkload:
    def __init__(self, name: str, config: SystemConfig):
        self.name = name
        self.config = config

    def setup(self, seed: int, size: Size) -> dict:
        System.booted(self.config)  # what IObench.run() pays first: mkfs + mount
        payload = random.Random(seed).randbytes(size.verify_kb * KB)
        return {
            "bench": IObench(self.config, file_size=size.file_mb * MB,
                             random_ops=size.random_ops, seed=seed),
            "payload": payload,
            "payload_sha256": hashlib.sha256(payload).hexdigest(),
        }

    def timed(self, state: dict) -> Outcome:
        bench = state["bench"]
        result = bench.run()
        system = bench.system
        return Outcome(
            sim_s=system.now,
            sim={"rates": result.rates, "cpu_util": result.cpu_util,
                 **machine_numbers(system)},
            systems=[system],
            extra={"rates": dict(result.rates),
                   "paper_err_pct": paper_err_pct(self.config.name,
                                                  result.rates)},
        )

    def verify(self, state: dict, outcome: Outcome) -> list[Check]:
        bench, system = state["bench"], outcome.systems[0]
        rates = outcome.extra["rates"]
        stats = system.requests.stats
        checks = [
            Check("rates_finite",
                  sorted(rates) == sorted(PHASES)
                  and all(math.isfinite(r) and r > 0 for r in rates.values()),
                  str(rates)),
            Check("requests_completed", stats["started"] == stats["completed"],
                  f"started={stats['started']} completed={stats['completed']}"),
            Check("requests_no_errors", stats["errors"] == 0,
                  f"errors={stats['errors']}"),
        ]
        system.sync()
        report = ufs.fsck(system.store)
        checks.append(Check("fsck_clean", report.clean,
                            "; ".join(report.findings[:3])))
        extents = measure_extents(system, bench.path)
        checks.append(Check("no_holes",
                            sum(extents.extents) == bench.file_size,
                            f"extents cover {sum(extents.extents)} of "
                            f"{bench.file_size} bytes"))
        data = self._write_evict_read(system, state["payload"])
        checks.append(readback_check(data, state["payload_sha256"]))
        return checks

    @staticmethod
    def _write_evict_read(system: System, payload: bytes) -> bytes:
        proc = Proc(system, name="verify")

        def write():
            fd = yield from proc.creat("/verify.dat")
            yield from proc.write(fd, payload)
            yield from proc.fsync(fd)
            yield from proc.close(fd)

        def read():
            fd = yield from proc.open("/verify.dat")
            data = yield from proc.read(fd, len(payload))
            yield from proc.close(fd)
            return data

        system.run(write(), name="verify-write")
        vnode = system.run(system.mount.namei("/verify.dat"), name="lookup")
        evict(system, vnode, vnode.inode.readahead)
        return system.run(read(), name="verify-read")


def readback_check(data: bytes, expected_sha256: str) -> Check:
    got = hashlib.sha256(data).hexdigest()
    return Check("readback_sha256", got == expected_sha256,
                 f"{len(data)} bytes, sha256 {got[:12]} vs {expected_sha256[:12]}")


# ---------------------------------------------------------------------------
# meta_churn

CHURN_PROCS = 4
CHURN_DIRS = 4
CHURN_MAX_FILE = 24 * KB


def churn_fate(index: int) -> str:
    """Every 3rd file is unlinked, every 8th of the rest renamed."""
    if index % 3 == 2:
        return "unlink"
    if index % 8 == 7:
        return "rename"
    return "keep"


class MetaChurnWorkload:
    name = "meta_churn"

    def setup(self, seed: int, size: Size) -> dict:
        rng = random.Random(seed)
        nfiles = CHURN_PROCS * CHURN_DIRS * size.churn_files
        # The seed permutes a fixed multiset of sizes (1-24 KB), so every
        # seed writes the same number of bytes and host time compares.
        sizes = [(k * KB) % CHURN_MAX_FILE + KB for k in range(nfiles)]
        rng.shuffle(sizes)
        contents = iter([rng.randbytes(n) for n in sizes])
        plan = [
            [(f"/p{p}d{d}", [next(contents) for _ in range(size.churn_files)])
             for d in range(CHURN_DIRS)]
            for p in range(CHURN_PROCS)
        ]
        survivors: dict[str, bytes] = {}
        listings: dict[str, list[str]] = {}
        for dirs in plan:
            for dirname, files in dirs:
                names = []
                for i, content in enumerate(files):
                    fate = churn_fate(i)
                    if fate == "unlink":
                        continue
                    names.append(f"r{i}" if fate == "rename" else f"f{i}")
                    survivors[f"{dirname}/{names[-1]}"] = content
                listings[dirname] = sorted(names)
        config = SystemConfig.config_a()
        return {"system": System.booted(config), "config": config,
                "plan": plan, "survivors": survivors, "listings": listings}

    @staticmethod
    def _churn(proc: Proc, dirs: list):
        for dirname, files in dirs:
            yield from proc.mkdir(dirname)
            for i, content in enumerate(files):
                path = f"{dirname}/f{i}"
                fd = yield from proc.creat(path)
                yield from proc.write(fd, content)
                if i % 4 == 3:
                    yield from proc.fsync(fd)
                yield from proc.close(fd)
                fate = churn_fate(i)
                if fate == "unlink":
                    yield from proc.unlink(path)
                elif fate == "rename":
                    yield from proc.rename(path, f"{dirname}/r{i}")
            yield from proc.readdir(dirname)

    @staticmethod
    def _read_back(proc: Proc, paths: list, dirnames: list):
        files, listings = {}, {}
        for path in paths:
            try:
                fd = yield from proc.open(path)
            except ReproError as exc:
                files[path] = exc  # reported by verify, not raised
                continue
            files[path] = yield from proc.read(fd, CHURN_MAX_FILE + 1)
            yield from proc.close(fd)
        for dirname in dirnames:
            entries = yield from proc.readdir(dirname)
            listings[dirname] = sorted(
                name for name, _ino in entries if name not in (".", ".."))
        return files, listings

    def timed(self, state: dict) -> Outcome:
        system = state["system"]
        t0 = system.now
        system.run_all([self._churn(Proc(system, name=f"churn{p}"), dirs)
                        for p, dirs in enumerate(state["plan"])])
        system.sync()
        report = ufs.fsck(system.store)
        remounted = System.remounted(system.store, state["config"])
        files, listings = remounted.run(
            self._read_back(Proc(remounted, name="readback"),
                            sorted(state["survivors"]),
                            sorted(state["listings"])),
            name="read-back")
        return Outcome(
            sim_s=(system.now - t0) + remounted.now,
            sim={"churn": machine_numbers(system),
                 "remounted": machine_numbers(remounted),
                 "fsck": [report.inodes_checked, report.directories_checked,
                          report.frags_claimed]},
            systems=[system, remounted],
            extra={"fsck": report, "files": files, "listings": listings},
        )

    def verify(self, state: dict, outcome: Outcome) -> list[Check]:
        report, files = outcome.extra["fsck"], outcome.extra["files"]
        wrong = [path for path, content in state["survivors"].items()
                 if files.get(path) != content]
        # A listing equal to the expected one proves both halves: every
        # survivor present and every unlinked or renamed-away name absent.
        stale = [d for d, names in state["listings"].items()
                 if outcome.extra["listings"].get(d) != names]
        return [
            Check("fsck_clean", report.clean, "; ".join(report.findings[:3])),
            Check("survivors_byte_equal", not wrong,
                  f"{len(wrong)} of {len(state['survivors'])} differ: "
                  f"{wrong[:3]}"),
            Check("unlinked_names_absent", not stale,
                  f"{len(stale)} of {len(state['listings'])} directory "
                  f"listings differ: {stale[:3]}"),
        ]


# ---------------------------------------------------------------------------
# nfs_stripe


class NfsStripeWorkload:
    name = "nfs_stripe"
    path = "/stripe.dat"
    record = 8 * KB

    def setup(self, seed: int, size: Size) -> dict:
        server_config = SystemConfig.config_a().with_(
            layout="stripe:4", checksums=True, write_cache=True)
        client, server, mount = build_world(
            server_config=server_config, bandwidth=8 * ETHERNET_10MBIT)
        payload = random.Random(seed).randbytes(size.nfs_mb * MB)
        return {"client": client, "server": server, "mount": mount,
                "payload": payload,
                "payload_sha256": hashlib.sha256(payload).hexdigest()}

    def timed(self, state: dict) -> Outcome:
        client, mount, payload = state["client"], state["mount"], state["payload"]
        # Through the syscall layer, so requests are counted like the
        # other workloads'; each 8 KB write/read is one NfsVnode.rdwr.
        proc = Proc(client, name="nfs", mount=mount)
        record = self.record
        t0 = client.now

        def write_all():
            fd = yield from proc.open(self.path, create=True)
            for offset in range(0, len(payload), record):
                yield from proc.write(fd, payload[offset:offset + record])
            yield from proc.fsync(fd)
            yield from proc.close(fd)

        def read_all():
            fd = yield from proc.open(self.path)
            chunks = []
            while True:
                data = yield from proc.read(fd, record)
                if not data:
                    break
                chunks.append(data)
            yield from proc.close(fd)
            return chunks

        client.run(write_all(), name="nfs-write")
        vnode = client.run(mount.namei(self.path), name="lookup")
        evict(client, vnode, vnode.readahead)
        chunks = client.run(read_all(), name="nfs-read")
        # The bytes that came back are the run's result: hashing them here
        # consumes it inside the timed section and ties the digest to the seed.
        readback = hashlib.sha256(b"".join(chunks)).hexdigest()
        server = state["server"]
        return Outcome(
            sim_s=client.now - t0,  # one engine, shared by both machines
            sim={"server": machine_numbers(server),
                 "client": machine_numbers(client),
                 "nfs": mount.stats.as_dict(),
                 "net": mount.network.stats.as_dict(),
                 "readback_sha256": readback},
            systems=[server, client],
            extra={"chunks": chunks, "nfs_stats": mount.stats},
        )

    def verify(self, state: dict, outcome: Outcome) -> list[Check]:
        return [readback_check(b"".join(outcome.extra["chunks"]),
                               state["payload_sha256"])]


# ---------------------------------------------------------------------------
# trace_analyze


class TraceAnalyzeWorkload:
    name = "trace_analyze"

    def setup(self, seed: int, size: Size) -> dict:
        bench = IObench(SystemConfig.config_a(),
                        file_size=size.trace_file_mb * MB,
                        random_ops=size.trace_random_ops, seed=seed,
                        trace_phase="*")
        bench.run()  # recording the ~20k spans is set-up, not analysis
        return {"system": bench.system, "rounds": size.trace_rounds}

    def timed(self, state: dict) -> Outcome:
        system = state["system"]
        tracer = system.tracer
        rounds = []
        for _ in range(state["rounds"]):
            table = obs.attribution_table(tracer)
            report = obs.critical_paths(tracer)
            conservation = obs.verify_conservation(report)
            agreement = obs.verify_against_attribution(tracer, report)
            chrome = obs.chrome_trace_json(tracer)
            events = len(json.loads(chrome)["traceEvents"])
            folded = obs.folded_stacks(tracer, report)
            jsonl = tracer.to_jsonl()
            snapshot = system.metrics.snapshot()
            export = hashlib.sha256()
            for part in (json.dumps(table, sort_keys=True),
                         json.dumps(report.to_json(), sort_keys=True),
                         chrome, folded, jsonl,
                         json.dumps(snapshot, sort_keys=True, default=str)):
                export.update(part.encode())
            rounds.append({"export_sha256": export.hexdigest(),
                           "chrome_events": events,
                           "problems": conservation + agreement})
        covered = tracer.trace_end()
        return Outcome(
            sim_s=covered * len(rounds),
            sim={"rounds": rounds, "trace_end": covered,
                 "spans": len(tracer.spans), "roots": len(tracer.span_roots())},
            systems=[system],
            extra={"rounds": rounds, "tracer": tracer},
        )

    def verify(self, state: dict, outcome: Outcome) -> list[Check]:
        rounds = outcome.extra["rounds"]
        problems = [p for r in rounds for p in r["problems"]]
        digests = {r["export_sha256"] for r in rounds}
        return [
            Check("conservation_and_attribution_agree", not problems,
                  "; ".join(problems[:3])),
            Check("exports_identical_across_rounds", len(digests) == 1,
                  f"{len(digests)} distinct export digests"),
            Check("chrome_trace_loads",
                  all(r["chrome_events"] > 0 for r in rounds), ""),
        ]


WORKLOADS: dict[str, Any] = {
    w.name: w for w in (
        IobenchWorkload("iobench_A", SystemConfig.config_a()),
        IobenchWorkload("iobench_D", SystemConfig.config_d()),
        MetaChurnWorkload(),
        NfsStripeWorkload(),
        TraceAnalyzeWorkload(),
    )
}
