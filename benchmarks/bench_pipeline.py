"""The request pipeline and the pluggable disk scheduler.

Two claims the refactor must hold up:

* **Correctness**: the scheduler changes *ordering only* — a sequential
  read returns byte-identical data under elevator, FIFO, and deadline.
* **Observability**: with tracing on, one syscall-level read maps to a
  span tree whose disk I/Os are cluster-sized (bigger than the record),
  and the per-layer stats (queue wait, service, request latency) come out
  of the same run.

Emits ``BENCH_pipeline.json`` at the repo root with the per-scheduler
rates and pipeline reports.
"""

import hashlib
import json
from pathlib import Path

from repro.bench.iobench import IObench
from repro.kernel import Proc, System, SystemConfig
from repro.units import KB, MB

FILE_SIZE = 4 * MB
RECORD = 8 * KB
SCHEDULERS = ("elevator", "fifo", "deadline")


def _read_digest(scheduler):
    """Write then sequentially re-read a file; digest what came back."""
    cfg = SystemConfig.config_a().with_(scheduler=scheduler)
    system = System.booted(cfg)
    proc = Proc(system)

    def write_phase():
        fd = yield from proc.creat("/f")
        for i in range(FILE_SIZE // RECORD):
            yield from proc.write(fd, bytes([i % 251]) * RECORD)
        yield from proc.fsync(fd)
        yield from proc.close(fd)

    system.run(write_phase())
    vn = system.run(system.mount.namei("/f"))
    system.pagecache.vnode_drop_clean(vn)
    vn.inode.readahead.reset()

    digest = hashlib.sha256()

    def read_phase():
        fd = yield from proc.open("/f")
        while True:
            data = yield from proc.read(fd, RECORD)
            if not data:
                break
            digest.update(data)

    t0 = system.now
    system.run(read_phase())
    elapsed = system.now - t0
    return digest.hexdigest(), FILE_SIZE / elapsed / 1024, system


def test_pipeline_schedulers(once):
    def run():
        out = {}
        for sched in SCHEDULERS:
            digest, rate, system = _read_digest(sched)
            bench = IObench(SystemConfig.config_a().with_(scheduler=sched),
                            file_size=FILE_SIZE)
            result = bench.run()
            out[sched] = {
                "digest": digest,
                "seq_read_kbs": rate,
                "rates": result.rates,
                "pipeline": result.pipeline,
            }
            assert system.driver.scheduler_name == sched
        return out

    results = once(run)
    print()
    for sched, cell in results.items():
        pipe = cell["pipeline"]
        print(f"{sched:9s} FSR={cell['rates']['FSR']:7.0f} KB/s  "
              f"qdepth_avg={pipe['queue_depth']['avg']:.2f}  "
              f"wait_p95={pipe['queue_wait']['p95'] * 1e3:.2f}ms")

    # Byte-identical data under every scheduler: ordering only.
    digests = {cell["digest"] for cell in results.values()}
    assert len(digests) == 1
    # Every run produced per-layer stats.
    for cell in results.values():
        pipe = cell["pipeline"]
        assert pipe["queue_wait"]["count"] > 0
        assert pipe["service"]["count"] > 0
        assert pipe["requests"]["latency"]["read"]["count"] > 0

    payload = {"benchmark": "pipeline", "file_size": FILE_SIZE,
               "schedulers": results}
    out_path = Path(__file__).resolve().parents[1] / "BENCH_pipeline.json"
    out_path.write_text(json.dumps(payload, indent=2, default=str) + "\n")
    print(f"wrote {out_path}")


def test_traced_read_maps_to_cluster_io(once):
    """One syscall read's span tree contains a cluster-sized disk I/O."""

    def run():
        bench = IObench(SystemConfig.config_a(), file_size=FILE_SIZE,
                        trace_phase="FSR")
        bench.run()
        return bench.system

    system = once(run)
    tracer = system.tracer
    reads = [s for s in tracer.span_roots()
             if s.name == "read" and s.fields.get("ios")]
    assert reads, "no traced read reached the disk"
    root = reads[0]
    tree = tracer.span_tree(root)
    names = {span.name for _, span in tree}
    assert {"getpage", "cluster_read", "disk_io"} <= names
    # The clustering claim: the disk transfer exceeds the 8 KB record.
    biggest = max(span.fields["nsectors"] * 512
                  for _, span in tree if span.name == "disk_io")
    assert biggest > RECORD
    print()
    print(tracer.render_spans(root))
