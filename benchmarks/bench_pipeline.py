"""The request pipeline and the pluggable disk scheduler.

Two claims the refactor must hold up:

* **Correctness**: the scheduler changes *ordering only* — a sequential
  read returns byte-identical data under elevator, FIFO, and deadline.
* **Observability**: with tracing on, one syscall-level read maps to a
  span tree whose disk I/Os are cluster-sized (bigger than the record),
  and the per-layer stats (queue wait, service, request latency) come out
  of the same run.

Emits ``BENCH_pipeline.json`` at the repo root: one ``run_bench`` cell
per scheduler, plus the digest and rate of the cold re-read.
"""

from benchmarks.conftest import (
    RECORD, ROOT, cold_sequential_read, write_patterned_file,
)
from repro.bench.iobench import IObench
from repro.kernel import Proc, System, SystemConfig
from repro.obs.bench import run_bench, write_document
from repro.units import MB

#: ``python -m repro bench --configs A --file-mb 4 --ops 2048`` per scheduler.
RUN = {"configs": "A", "file_mb": 4, "random_ops": 2048, "seed": 1991}
FILE_SIZE = RUN["file_mb"] * MB
SCHEDULERS = ("elevator", "fifo", "deadline")


def _read_digest(scheduler):
    """Write then sequentially re-read a file; digest what came back."""
    system = System.booted(SystemConfig.config_a().with_(scheduler=scheduler))
    assert system.driver.scheduler_name == scheduler
    proc = Proc(system)
    write_patterned_file(system, proc, "/f", FILE_SIZE)
    return cold_sequential_read(system, proc, "/f")


def test_pipeline_schedulers(once):
    def run():
        out = {}
        for sched in SCHEDULERS:
            digest, rate = _read_digest(sched)
            cell = run_bench(**RUN, scheduler=sched)["results"]["A"]
            assert cell["scheduler"] == sched
            out[sched] = {**cell, "digest": digest, "seq_read_kbs": rate}
        return out

    results = once(run)
    print()
    for sched, cell in results.items():
        metrics = cell["metrics"]
        print(f"{sched:9s} FSR={cell['rates']['FSR']:7.0f} KB/s  "
              f"qdepth_avg={metrics['disk.driver.queue_depth']['avg']:.2f}  "
              f"wait_p95={metrics['disk.driver.wait']['p95'] * 1e3:.2f}ms")

    # Byte-identical data under every scheduler: ordering only.
    digests = {cell["digest"] for cell in results.values()}
    assert len(digests) == 1
    # Every run produced per-layer stats.
    for cell in results.values():
        metrics = cell["metrics"]
        assert metrics["disk.driver.wait"]["count"] > 0
        assert metrics["disk.driver.service"]["count"] > 0
        assert metrics["requests.latency"]["read"]["count"] > 0

    write_document(ROOT / "BENCH_pipeline.json",
                   {"benchmark": "pipeline", **RUN}, results)


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
