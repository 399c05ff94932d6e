"""The experiment table: one row per experiment of the paper's evaluation.

An :class:`Experiment` is ``(id, paper_section, workload, run, cells)``:
``run(sections)`` builds its own machines and returns ``{cell: value}``; a
:class:`Cell` is ``(name, paper value or None, band, reason)``.  Bands are
two-sided: exact for traces, digests and zero counts, otherwise around
today's value, tighter than a 30 % drift.  A comparison of two cells is a
third, their ratio: two bands can each hold while the comparison fails.
``python -m repro report`` runs the rows; a row that drives NFS or fault
injection imports that layer inside ``run``.  A sweep's verdict is its
row: an ``exact(0)`` cell per invariant (:func:`sweep_cells`).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass
from importlib import import_module
from typing import Any, Callable

from repro.bench import (
    IObench, age_filesystem, measure_extents, run_cpu_bench, run_musbus,
)
from repro.bench.iobench import PHASES
from repro.bench.report import PAPER_FIGURE_10, PAPER_FIGURE_11, PAPER_FIGURE_12
from repro.core import ClusterTuning
from repro.disk import DiskGeometry
from repro.kernel import Proc, System, SystemConfig
from repro.kernel.update import UpdateDaemon
from repro.obs.bench import run_bench
from repro.s5fs import S5FileSystem, s5_mkfs
from repro.sim.invariants import sanitizing
from repro.ufs import FsParams, bmap
from repro.units import KB, MB
from repro.vfs import RW

RECORD = 8 * KB
PATTERN = bytes(range(256)) * 32  # 8 KB that is not all zeros
SHAPE = "deterministic: any move is a model change, not noise"


@dataclass(frozen=True)
class Cell:
    """One published number: the paper's value and what may move."""

    name: str
    paper: Any
    band: tuple
    reason: str


def exact(value: Any) -> tuple:
    """The band of a trace, a digest or a count that must be zero."""
    return (value, value)


def near(value: float, tol: float = 0.1) -> tuple:
    return (value * (1 - tol), value * (1 + tol))


def today(values: dict, reason: str = SHAPE, tol: float = 0.1) -> list:
    """Cells ``{name: today's value}``, each banded ``tol`` around it."""
    return [Cell(name, None, near(value, tol), reason)
            for name, value in values.items()]


def table(rows: dict, columns) -> dict:
    """``{"row: column": value}`` from ``{row: (value per column, ...)}``."""
    return {f"{row}: {column}": value for row, values in rows.items()
            for column, value in zip(columns, values)}


def ratio(num: str, den: str, column: str, band: tuple, reason: str):
    """The ratio cell ``num / den: column`` of two rows of a :func:`table`,
    as :func:`experiment` takes it."""
    return (f"{num} / {den}: {column}", f"{num}: {column}",
            f"{den}: {column}", band, reason)


@dataclass(frozen=True)
class Experiment:
    """A row: the paper artefact it reproduces and how to measure it."""

    id: str
    paper_section: str
    workload: str
    run: Callable[[dict], dict]
    cells: tuple
    #: ``(file name, run parameters)`` of a ``BENCH_*.json`` the row owns;
    #: ``run`` fills ``sections`` with its results (other rows ignore it).
    document: "tuple[str, dict] | None" = None


EXPERIMENTS: dict[str, Experiment] = {}


def experiment(id: str, paper_section: str, workload: str, cells,
               document: "tuple[str, dict] | None" = None, ratios=()):
    """Register the decorated function as the ``run`` of row ``id``; each
    of ``ratios``, ``(name, numerator, denominator, band, reason)``, is one
    more cell, the quotient of two cells the function measures."""

    def register(measure):
        def run(sections: dict) -> dict:
            values = measure(sections)
            return values | {name: values[num] / values[den]
                             for name, num, den, _, _ in ratios}

        EXPERIMENTS[id] = Experiment(
            id, paper_section, workload, run,
            tuple(cells) + tuple(Cell(name, None, band, reason)
                                 for name, _, _, band, reason in ratios),
            document)
        return measure

    return register


# -- machines and the shared write -> drop -> cold-read pattern ---------------

def machine(config: SystemConfig, **tuning) -> "tuple[System, Proc]":
    """``config`` with ``tuning`` overrides, booted, and a process on it."""
    if tuning:
        config = config.with_(tuning=config.tuning.with_(**tuning))
    system = System.booted(config)
    return system, Proc(system)


def geometry(cylinders: int, heads: int = 4, sectors: int = 32):
    return DiskGeometry.uniform(cylinders=cylinders, heads=heads,
                                sectors_per_track=sectors)


def _small_a(**tuning) -> "tuple[System, Proc]":
    """Config A on a 400-cylinder disk, with ``tuning`` overrides."""
    return machine(SystemConfig.config_a().with_(geometry=geometry(400)),
                   **tuning)


def patterned(i: int) -> bytes:  # record i of a patterned file
    return bytes([i % 251]) * RECORD


def write_file(system, proc, path: str, size: int, chunk: int = RECORD,
               fill: "Callable[[int], bytes] | None" = None,
               close: bool = False):
    """Create ``path`` from ``size // chunk`` writes (zeros, or ``fill(i)``
    for the i-th) and fsync it: ``(fd, KB/s)`` from creat to fsync."""

    def work():
        fd = yield from proc.creat(path)
        for i in range(size // chunk):
            yield from proc.write(fd, fill(i) if fill else bytes(chunk))
        yield from proc.fsync(fd)
        if close:
            yield from proc.close(fd)
        return fd

    t0 = system.now
    fd = system.run(work())
    return fd, size / (system.now - t0) / KB


def drop_cache(system, path: str) -> None:
    """Forget ``path``'s cached pages and read-ahead state."""
    vn = system.run(system.mount.namei(path))
    system.pagecache.vnode_drop_clean(vn)
    vn.inode.readahead.reset()


def read_file(system, proc, path: str, record: int = RECORD,
              cold: bool = True):
    """Read ``path`` to the end in ``record``-byte reads, first dropping its
    cache if ``cold``: ``(sha256 hex, KB/s, CPU seconds)``."""
    if cold:
        drop_cache(system, path)
    digest = hashlib.sha256()
    nbytes = 0

    def work():
        nonlocal nbytes
        fd = yield from proc.open(path)
        while data := (yield from proc.read(fd, record)):
            digest.update(data)
            nbytes += len(data)

    t0, cpu0 = system.now, system.cpu.system_time
    system.run(work())
    return (digest.hexdigest(), nbytes / (system.now - t0) / KB,
            system.cpu.system_time - cpu0)


# -- figures 3-7: traces and placement ----------------------------------------

READS = {"getpage_sync": "sync", "readahead": "async"}


def _pages(rec) -> str:
    first = rec.offset // RECORD
    return f"{first},..,{first + rec.bytes // RECORD - 1}"


def _trace(maxcontig: int, npages: int, write: bool, describe) -> str:
    """A sequential pass, page by page, over a cold file (or a new one):
    ``describe`` of each trace record, ``+`` in a page, ``/`` between."""
    on = maxcontig > 1
    system, proc = machine(SystemConfig(
        name="trace", geometry=geometry(200),
        fs_params=FsParams(rotdelay_ms=0.0, maxcontig=maxcontig),
        tuning=ClusterTuning(read_clustering=on, write_clustering=on,
                             freebehind=False, write_limit=0)))
    system.tracer.enabled = True
    if write:
        fd = system.run(proc.creat("/traced"))
    else:
        fd, _ = write_file(system, proc, "/traced", npages * RECORD,
                           chunk=npages * RECORD)
        drop_cache(system, "/traced")
        system.tracer.clear()
    pages = []
    for i in range(npages):
        before = len(system.tracer.records)
        system.run(proc.pwrite(fd, bytes(RECORD), i * RECORD) if write
                   else proc.pread(fd, RECORD, i * RECORD))
        said = [describe(rec) for rec in system.tracer.records[before:]]
        pages.append(" + ".join(s for s in said if s) or "-")
    return " / ".join(pages)


FIGS = {  # cell: (the paper's boxes, what they show)
    "fig. 3 reads": ("sync read 0 + async read 1 / async read 2 / async read "
                     "3 / -", "one block of read-ahead per fault"),
    "fig. 6 reads": ("sync 0,..,2 + async 3,..,5 / - / - / async 6,..,8 / - "
                     "/ - / - / - / -", "nothing is prefetched past EOF"),
    "fig. 7 writes": ("lie / lie / push 0,..,2 / lie / lie / push 3,..,5",
                      "lie, lie, push the cluster")}


@experiment(
    "fig3_6_7", "Figs. 3, 6, 7: read-ahead and write-clustering traces",
    "each 8 KB page of a sequential pass: maxcontig 1 (fig. 3), 3 (6, 7)",
    [Cell(name, boxes, exact(boxes), f"the paper's boxes: {why}")
     for name, (boxes, why) in FIGS.items()])
def _fig3_6_7(_sections):
    return {
        "fig. 3 reads": _trace(1, 4, False, lambda rec: rec.tag in READS and (
            f"{READS[rec.tag]} read {rec.offset // RECORD}")),
        "fig. 6 reads": _trace(3, 9, False, lambda rec: rec.tag in READS and (
            f"{READS[rec.tag]} {_pages(rec)}")),
        "fig. 7 writes": _trace(3, 6, True, lambda rec: (
            "lie" if rec.tag == "write_delayed" else
            rec.tag == "write_cluster_push" and f"push {_pages(rec)}"))}


def _strides(config: str) -> str:
    """The distinct gaps, in blocks, between a new file's 8 blocks."""
    system, proc = machine(SystemConfig.by_name(config).with_(
        geometry=geometry(120)))
    write_file(system, proc, "/layout", 8 * RECORD)
    mount = system.mount
    vn = system.run(mount.namei("/layout"))
    addrs = [system.run(bmap.get_pointer(mount, vn.inode, lbn))
             for lbn in range(8)]
    return "/".join(sorted({str((b - a) // mount.sb.frag)
                            for a, b in zip(addrs, addrs[1:])}))


@experiment(
    "fig4_5", "Figs. 4, 5: interleaved vs contiguous placement",
    "an 8-block file on config D (rotdelay 4 ms) and A (rotdelay 0)",
    [Cell("rotdelay 4 ms stride (blocks)", "2", exact("2"),
          "fig. 4: a one-block rotational gap after every block"),
     Cell("rotdelay 0 stride (blocks)", "1", exact("1"),
          "fig. 5: physically consecutive blocks")])
def _fig4_5(_sections):
    return {"rotdelay 4 ms stride (blocks)": _strides("D"),
            "rotdelay 0 stride (blocks)": _strides("A")}


# -- figures 10-12, the allocator and MusBus ----------------------------------

FIG10 = {"A": (1494, 1267, 1262, 432, 442), "B": (782, 781, 779, 440, 439),
         "C": (782, 781, 779, 440, 439), "D": (782, 781, 779, 440, 475)}
FIG11 = {"FSR": ((1.7, 2.2), "clustering about doubles sequential reads"),
         "FSU": ((1.45, 1.8), "sequential updates improve about 1.6x"),
         "FSW": ((1.45, 1.8), "sequential writes improve about 1.6x"),
         "FRR": ((0.9, 1.1), "random reads unchanged"),
         "FRU": ((0.92, 1.1), "random updates about unchanged against B, C")}


@experiment(
    "fig10_11", "Figs. 10, 11: IObench transfer rates (KB/s) and ratios",
    "IObench on A-D: 16 MB file, 2048 random 8 KB ops, seed 1991",
    [Cell(f"{c} {p}", PAPER_FIGURE_10[c][p], near(FIG10[c][i]), SHAPE)
     for c in "ABCD" for i, p in enumerate(PHASES)]
    + [Cell(f"A/{c} {p}", PAPER_FIGURE_11[f"A/{c}"][p], *FIG11[p])
       for c in "BCD" for p in PHASES if (c, p) != ("D", "FRU")]
    + [Cell("A/D FRU", PAPER_FIGURE_11["A/D"]["FRU"], (0.85, 1.0),
            "random updates get slower: the write limit's fairness cost"),
       Cell("D FSR CPU utilisation", None, near(0.362, 0.15),
            "the old system spends much of the CPU on ~750 KB/s"),
       Cell("A/D FSR CPU per byte", None, (0.8, 0.98),
            "clustering moves twice the data without twice the CPU")])
def _fig10_11(_sections):
    return fig10_11_cells({c: IObench(SystemConfig.by_name(c)).run()
                           for c in "ABCD"})


def fig10_11_cells(runs: dict) -> dict:
    """The fig. 10/11 cells of IObench results ``{config: result}``: each
    config's rates, A's over every other config's, and the FSR CPU cells
    of D, and of A against D, when those ran."""
    values = {f"{c} {p}": r.rates[p] for c, r in runs.items() for p in PHASES}
    a, d = runs.get("A"), runs.get("D")
    if a is not None:
        values.update({f"A/{c} {p}": a.rates[p] / r.rates[p]
                       for c, r in runs.items() if c != "A" for p in PHASES})
    if d is not None:
        values["D FSR CPU utilisation"] = d.cpu_util["FSR"]
    if a is not None and d is not None:
        values["A/D FSR CPU per byte"] = (
            a.cpu_util["FSR"] / a.rates["FSR"]) / (
            d.cpu_util["FSR"] / d.rates["FSR"])
    return values


@experiment(
    "fig12", "Fig. 12: system CPU, 16 MB mmap read",
    "a cold 16 MB file read through mmap on A (new) and D (old)",
    [Cell("new CPU (s)", PAPER_FIGURE_12["new"], (2.4, 2.95),
          "the same faults as old, but driver and bmap work per cluster"),
     Cell("old CPU (s)", PAPER_FIGURE_12["old"], (3.1, 3.8),
          "driver, interrupt and bmap work per block"),
     Cell("CPU saved", 0.25, (0.18, 0.28),
          "'approximately 25% more efficient in terms of CPU cycles'")]
    + today({"new elapsed (s)": 10.66, "old elapsed (s)": 20.95}))
def _fig12(_sections):
    new, old = (run_cpu_bench(SystemConfig.by_name(c)) for c in "AD")
    return {"new CPU (s)": new.cpu_seconds, "old CPU (s)": old.cpu_seconds,
            "CPU saved": 1 - new.cpu_seconds / old.cpu_seconds,
            "new elapsed (s)": new.elapsed, "old elapsed (s)": old.elapsed}


def _extents(size: int, aged: bool):
    """The extents of a file written on a ~66 MB disk, fresh or aged."""
    # cpg=32 keeps the cylinder groups (so the maxbpg spill quota bounding
    # a big file's extents) proportionate to the paper's 400 MB disk.
    system, proc = machine(SystemConfig.config_a().with_(
        geometry=geometry(512, 9, 28),
        fs_params=FsParams.clustered(120 * KB, cpg=32)))
    if aged:
        age_filesystem(system, target_utilization=0.85, seed=7)
    write_file(system, proc, "/big", size, chunk=64 * KB)
    report = measure_extents(system, "/big")
    return (report.average / KB, report.largest / KB, report.count,
            size - report.file_size)


@experiment(
    "alloc_extents", "§Allocator details: extent sizes",
    "66 MB disk: a 13 MB file, fresh; 6 MB after aging to 85 % full",
    [Cell("fresh: average extent (KB)", 1536, near(887),
          "1/6 scale: maxbpg caps a run near 1 MB, short of 1.5 MB"),
     Cell("aged: average extent (KB)", 62, near(96, 0.15),
          "tens of KB on an aged disk: degraded, still multi-block")]
    + [Cell(f"{case}: bytes missing", None, exact(0),
            "the file is complete however scattered")
       for case in ("fresh", "aged")]
    + [Cell("fresh: largest extent (KB)", None, (950, 1100),
            "maxbpg (126 blocks) caps a run near 1 MB")]
    + today({"fresh: extents": 15, "aged: largest extent (KB)": 1016,
             "aged: extents": 64}, tol=0.15))
def _alloc_extents(_sections):
    return table({"fresh": _extents(13 * MB, False),
                  "aged": _extents(6 * MB, True)},
                 ("average extent (KB)", "largest extent (KB)", "extents",
                  "bytes missing"))


@experiment(
    "musbus", "§Performance: time-sharing 'improved only slightly'",
    "run_musbus defaults: 4 users x 8 scripts of think, exec, small files",
    today({"A elapsed (s)": 4.37, "D elapsed (s)": 4.36}),
    ratios=[("D/A elapsed", "D elapsed (s)", "A elapsed (s)", (0.97, 1.1),
             "MusBus moves no substantial data for clustering to speed up")])
def _musbus(_sections):
    a, d = (run_musbus(SystemConfig.by_name(name)) for name in "AD")
    return {"A elapsed (s)": a.elapsed, "D elapsed (s)": d.elapsed}


# -- the rejected alternatives and the write limit ----------------------------

SEQ = ("read (KB/s)", "write (KB/s)", "read CPU (s)", "merges")


def _seq_rates(config: SystemConfig):
    """8 MB written in 8 KB records, then read cold: one value per SEQ."""
    system, proc = machine(config)
    _, write = write_file(system, proc, "/f", 8 * MB)
    _, read, cpu = read_file(system, proc, "/f")
    return read, write, cpu, system.driver.stats["coalesced"]


ROTDELAY = {"rotdelay 4 ms, buffer": (781, 776), "rotdelay 0, buffer":
            (1493, 367), "rotdelay 4 ms, no buffer": (781, 776),
            "rotdelay 0, no buffer": (368, 367)}


@experiment(
    "abl_rotdelay", "§Possible improvements: file system tuning",
    "config D, rotdelay 4 ms or 0, track buffer or none: 8 MB file",
    today(table(ROTDELAY, SEQ), "rotdelay 0 speeds buffered reads, but "
          "writes 'suffer horribly'; unbuffered, reads collapse too"),
    ratios=[ratio(f"rotdelay 0, {buffer}", f"rotdelay 4 ms, {buffer}", what,
                  (0.4, 0.55), why) for buffer, what, why in (
                ("buffer", "write (KB/s)", "writes 'suffer horribly'"),
                ("no buffer", "read (KB/s)",
                 "with no track buffer a read misses its rotation too"))])
def _abl_rotdelay(_sections):
    return table({label: _seq_rates(SystemConfig.config_d().with_(
        fs_params=FsParams(rotdelay_ms=4.0 if "4 ms" in label else 0.0,
                           maxcontig=1),
        track_buffer="no buffer" not in label))[:2] for label in ROTDELAY},
        SEQ)


DRIVER = {"coalescing off": (1493, 367, 3.78),
          "coalescing on": (1493, 1061, 3.78, 875)}


@experiment(
    "abl_driver", "§Possible improvements: driver clustering",
    "config D, rotdelay 0, track buffer, driver coalescing off / on",
    today(table(DRIVER, SEQ),
          "coalescing helps only writes and leaves the per-block CPU")
    + [Cell("coalescing off: merges", None, exact(0),
            "nothing merges unless the driver coalesces")],
    ratios=[ratio("coalescing on", "coalescing off", what, (0.95, 1.05), why)
            for what, why in (("read (KB/s)", "coalescing helps only writes"),
                              ("read CPU (s)", "it leaves the per-block CPU"))])
def _abl_driver(_sections):
    return table({label: _seq_rates(SystemConfig.config_d().with_(
        fs_params=FsParams(rotdelay_ms=0.0, maxcontig=1),
        driver_coalesce=label.endswith("on"), track_buffer=True))
        for label in DRIVER}, SEQ)


LIMIT = ("seq write (KB/s)", "rand update (KB/s)", "max queue",
         "max queued (KB)")
LIMITS = {"limit 8 KB": (8 * KB, 929, 406, 2, 120),
          "limit 24 KB": (24 * KB, 934, 421, 4, 120),
          "limit 240 KB": (240 * KB, 1248, 462, 31, 360),
          "no limit": (0, 1248, 475, 73, 4472)}


def _write_limit(limit: int):
    """8 MB written in 8 KB records, then 1024 random 8 KB updates."""
    system, proc = machine(SystemConfig.config_a(), write_limit=limit)
    _, seq = write_file(system, proc, "/f", 8 * MB)
    rng = random.Random(3)
    offsets = [rng.randrange(8 * MB // RECORD) * RECORD for _ in range(1024)]

    def update():
        fd = yield from proc.open("/f")
        for off in offsets:
            yield from proc.pwrite(fd, bytes(RECORD), off)
        yield from proc.fsync(fd)

    t0 = system.now
    system.run(update())
    return (seq, len(offsets) * RECORD / (system.now - t0) / KB,
            system.driver.queue_depth.maximum,
            system.driver.queue_bytes.maximum / KB)


@experiment(
    "abl_writelimit", "§Write limits: sizing the limit",
    "config A by write limit: 8 MB written, 1024 random 8 KB updates",
    today(table({k: v[1:] for k, v in LIMITS.items()}, LIMIT),
          "one write in flight leaves bubbles; 240 KB keeps full speed; no "
          "limit queues far deeper"),
    ratios=[ratio("no limit", "limit 240 KB", "max queue", (2.1, 2.6),
                  "'a single process can lock down all of memory'"),
            ratio("limit 240 KB", "no limit", "seq write (KB/s)", (0.95, 1.05),
                  "240 KB keeps full speed"),
            ratio("limit 8 KB", "limit 240 KB", "seq write (KB/s)",
                  (0.6, 0.85), "one write in flight leaves bubbles"),
            ratio("no limit", "limit 240 KB", "rand update (KB/s)",
                  (0.98, 1.1), "the limit costs random updates little")])
def _abl_writelimit(_sections):
    return table({label: _write_limit(limit)
                  for label, (limit, *_) in LIMITS.items()}, LIMIT)


# -- related work: Peacock ----------------------------------------------------

def _s5fs_read(aged: bool):
    """A clustered S5FS, fresh or churned: cold 1 MB KB/s, contiguity."""
    system = System(SystemConfig.config_a().with_(geometry=geometry(700)))
    s5_mkfs(system.store)
    fs = S5FileSystem(system, nbufs=128, clustering=True)
    proc = Proc(system)
    rng = random.Random(11)

    def churn():
        live = []  # ~2 MB in circulation scrambles more than the victim needs
        for i in range(900):
            fd = yield from proc.creat(f"/f{i}")
            yield from proc.write(fd, bytes(rng.randrange(8, 96) * KB))
            yield from proc.close(fd)
            live.append(f"/f{i}")
            if len(live) > 30:
                yield from proc.unlink(live.pop(rng.randrange(len(live))))

    def purge():  # unrelated reads push the file out of the buffer cache
        for blk in range(fs.sb.data_start + 9000, fs.sb.data_start + 9128):
            yield from fs.cache.bread(blk)

    if aged:
        system.run(churn())
    contiguity = fs.free_list_contiguity()
    fd, _ = write_file(system, proc, "/victim", MB, chunk=MB)
    system.run(purge())
    t0 = system.now
    system.run(proc.pread(fd, MB, 0))
    return MB / (system.now - t0) / KB, contiguity


@experiment(
    "abl_s5fs", "§Comparison to related work: Peacock's S5FS clustering",
    "a cold 1 MB read: S5FS fresh and churned; UFS aged to 60 % full",
    today({"s5fs fresh: read (KB/s)": 698, "s5fs aged: read (KB/s)": 190,
           "ufs aged: read (KB/s)": 664})
    + [Cell("s5fs fresh: free-list contiguity", None, (0.95, 1.05),
            "a fresh LIFO free list is in disk order"),
       Cell("s5fs aged: free-list contiguity", None, near(0.43, 0.15),
            "the free list 'gets scrambled as the file system ages'")],
    ratios=[ratio("ufs aged", "s5fs aged", "read (KB/s)", (3.0, 4.2),
                  "the FFS allocator keeps the contiguity S5FS loses")])
def _abl_s5fs(_sections):
    values = table({"s5fs fresh": _s5fs_read(False),
                    "s5fs aged": _s5fs_read(True)},
                   ("read (KB/s)", "free-list contiguity"))
    system, proc = machine(SystemConfig.config_a().with_(
        geometry=geometry(700), fs_params=FsParams.clustered(56 * KB)))
    age_filesystem(system, target_utilization=0.6, seed=11, mean_file_kb=24)
    write_file(system, proc, "/victim", MB, chunk=64 * KB)
    values["ufs aged: read (KB/s)"] = read_file(
        system, Proc(system), "/victim")[1]
    return values


BURST = ("max queue", "avg queue", "worst bystander read (ms)")


def _flush_bursts(lazy: bool):
    system, proc = _small_a(lazy_writeback=lazy, write_limit=0)
    if lazy:
        UpdateDaemon(system.engine, system.mount)
    write_file(system, proc, "/bystander", 16 * KB, chunk=16 * KB)
    system.pagecache.vnode_drop_clean(
        system.run(system.mount.namei("/bystander")))
    latencies = []

    def steady_writer():
        fd = yield from proc.creat("/log")
        for _ in range(200):  # 200 x 64 KB over ~20 s
            yield from proc.write(fd, bytes(64 * KB))
            yield system.engine.timeout(0.1)
        yield from proc.fsync(fd)

    def bystander():
        reader = Proc(system, "bystander")
        for _ in range(8):
            yield system.engine.timeout(2.6)
            t0 = system.now
            fd = yield from reader.open("/bystander")
            yield from reader.read(fd, 16 * KB)
            yield from reader.close(fd)
            latencies.append(system.now - t0)
            system.pagecache.vnode_drop_clean(  # cold again next time
                (yield from system.mount.namei("/bystander")))

    system.run_all([steady_writer(), bystander()])
    queue = system.driver.queue_depth
    return queue.maximum, queue.average(), max(latencies) * 1000


@experiment(
    "abl_burst", "§Comparison to related work: flush bursts",
    "a 640 KB/s writer for 20 s beside 8 cold 16 KB reads, no limit",
    today(table({"cluster boundary": (4, 0.916, 330),
                 "accumulate + update": (413, 74.2, 3047)}, BURST),
          "'the disks are kept uniformly busy, instead [of] developing "
          "large disk queues'", tol=0.15))
def _abl_burst(_sections):
    return table({"cluster boundary": _flush_bursts(False),
                  "accumulate + update": _flush_bursts(True)}, BURST)


# -- further work -------------------------------------------------------------

def _small_files(proc, names, size):
    """Create each of ``names`` with ``size(i)`` bytes, fsync, close."""
    for i, name in enumerate(names):
        fd = yield from proc.creat(name)
        yield from proc.write(fd, bytes(size(i)))
        yield from proc.fsync(fd)
        yield from proc.close(fd)


def _bmap_cache(on: bool):
    """bmap CPU for a cold sequential read of a 4 MB file."""
    system, proc = _small_a(bmap_cache=on)
    write_file(system, proc, "/big", 4 * MB, chunk=64 * KB)
    drop_cache(system, "/big")
    system.cpu.reset_ledger()
    read_file(system, proc, "/big", cold=False)
    return (system.cpu.breakdown().get("bmap", 0.0),)


def _random_clustering(on: bool):
    """128 random 24 KB reads of a cold 6 MB file: KB/s, read I/Os."""
    system, proc = _small_a(random_clustering=on)
    fd, _ = write_file(system, proc, "/seg", 6 * MB, chunk=64 * KB)
    drop_cache(system, "/seg")
    rng = random.Random(5)
    offsets = [rng.randrange(6 * MB // (24 * KB)) * 24 * KB
               for _ in range(128)]

    def read_random():
        for off in offsets:
            yield from proc.pread(fd, 24 * KB, off)

    t0 = system.now
    system.run(read_random())
    return (len(offsets) * 24 * KB / (system.now - t0) / KB,
            system.mount.stats["read_ios"])


def _b_order(on: bool):
    """Seconds until ``rm *`` of 64 small files returns the prompt."""
    system, proc = machine(SystemConfig.config_a().with_(
        geometry=geometry(400), ordered_metadata=on))
    system.run(_small_files(proc, [f"/f{i:03d}" for i in range(64)],
                            lambda _i: 4 * KB))

    def rm_star():
        for i in range(64):
            yield from proc.unlink(f"/f{i:03d}")
        return system.now  # the prompt; B_ORDER metadata drains behind it

    t0 = system.now
    return (system.run(rm_star()) - t0,)


def _ufs_hole(on: bool):
    """A fully cached 2 MB re-read: bmap CPU, bmap calls bypassed."""
    system, proc = _small_a(hole_check_bypass=on)
    fd, _ = write_file(system, proc, "/hot", 2 * MB, chunk=2 * MB)

    def reread():
        yield from proc.lseek(fd, 0)
        while (yield from proc.read(fd, RECORD)):
            pass

    system.run(reread())  # warm: every page cached from here on
    system.cpu.reset_ledger()
    system.run(reread())
    return (system.cpu.breakdown().get("bmap", 0.0),
            system.mount.stats["bmap_bypassed"])


def _inode_data(on: bool):
    """24 small files opened and read 20 times, warm: CPU, elapsed."""
    system, proc = _small_a(inode_data_cache=on)
    system.run(_small_files(proc, [f"/conf{i:02d}" for i in range(24)],
                            lambda i: 500 + i * 37))

    def rereads():
        for _ in range(20):
            for i in range(24):
                fd = yield from proc.open(f"/conf{i:02d}")
                yield from proc.read(fd, 2 * KB)
                yield from proc.close(fd)

    system.run(rereads())  # warm
    system.cpu.reset_ledger()
    t0 = system.now
    system.run(rereads())
    return system.cpu.system_time, system.now - t0


FUTURE = {  # feature: (measure, its cells, (off, on) per cell, and the on/off
    #                    band of its first cell with the reason it moves)
    "bmap cache": (_bmap_cache, ("bmap CPU (s)",), ((0.0999, 0.0178),),
                   (0.14, 0.22), "a cached mapping saves most of bmap's CPU"),
    "random clustering": (
        _random_clustering, ("24 KB reads (KB/s)", "read I/Os"),
        ((367, 511), (110, 108)), (1.15, 1.6),
        "the request size is a clustering hint"),
    "B_ORDER": (_b_order, ("rm * of 64 files (s)",), ((2.18, 0.0747),),
                (0.027, 0.042), "the prompt returns before metadata drains"),
    "UFS_HOLE": (_ufs_hole, ("cached re-read bmap CPU (s)",
                             "bmap calls skipped"), ((0.0454, 0), (0, 512)),
                 exact(0.0), "a cache hit on a file with no holes skips bmap"),
    "inode data": (_inode_data, ("CPU (s)", "elapsed (s)"),
                   ((1.31, 0.742), (1.31, 0.742)), (0.45, 0.68),
                   "a small file read from its inode skips the page cache")}


@experiment(
    "ext_future", "§Further work, implemented and measured",
    "config A on a 400-cylinder disk, each feature off, then on",
    [Cell(f"{feature} {mode}: {name}", None,
          near(value, 0.15) if value else exact(0),
          "each feature off and on, as the paper sketched it" if value
          else "zero by design: bypassing bmap skips all of it, or none")
     for feature, (_, names, cells, *_) in FUTURE.items()
     for name, pair in zip(names, cells)
     for mode, value in zip(("off", "on"), pair)],
    ratios=[ratio(f"{feature} on", f"{feature} off", names[0], band, why)
            for feature, (_, names, _, band, why) in FUTURE.items()])
def _ext_future(_sections):
    return {f"{feature} {mode}: {name}": value
            for feature, (measure, names, *_) in FUTURE.items()
            for mode, on in (("off", False), ("on", True))
            for name, value in zip(names, measure(on))}


# -- additional sensitivity studies -------------------------------------------

def _nfs_stream(config: str, bandwidth: float) -> float:
    """Client KB/s reading a 4 MB file cold from a ``config`` server."""
    from repro.nfs import build_world

    client, server, mount = build_world(
        server_config=SystemConfig.by_name(config), bandwidth=bandwidth)

    def setup():
        vn = yield from mount.open("/stream", create=True)
        yield from vn.rdwr(RW.WRITE, 0, bytes(4 * MB))
        yield from vn.fsync()
        return vn

    def read_all():
        offset = 0
        while offset < 4 * MB:
            offset += len((yield from vn.rdwr(RW.READ, offset, RECORD)))

    vn = client.run(setup())
    client.pagecache.vnode_drop_clean(vn)
    vn.readahead.reset()
    drop_cache(server, "/stream")
    t0 = client.now
    client.run(read_all())
    return 4 * MB / (client.now - t0) / KB


@experiment(
    "abl_nfs", "'All users benefit': fig. 1's remote file system",
    "a 4 MB file read cold over NFS, 10 Mbit or an 8x faster wire",
    [Cell("server A, 10 Mbit", None, (1015, 1220),
          "under the 10 Mbit wire's 1221 KB/s, which caps it")]
    + today({"server D, 10 Mbit": 779, "server A, fast wire": 1446,
             "server D, fast wire": 779}),
    ratios=[(f"A/D, {wire}", f"server A, {wire}", f"server D, {wire}", band,
             why) for wire, band, why in (
        ("10 Mbit", (1.25, 1.6),
         "the wire caps A, yet D's disk is the choke: remote users gain"),
        ("fast wire", (1.65, 2.1),
         "with the wire out of the way the disk ratio re-emerges"))])
def _abl_nfs(_sections):
    from repro.nfs.net import ETHERNET_10MBIT

    return {f"server {c}, {wire}": _nfs_stream(c, times * ETHERNET_10MBIT)
            for wire, times in (("10 Mbit", 1), ("fast wire", 8)) for c in "AD"}


CLSIZE = {8: (1493, 367, 471), 24: (1533, 747, 437), 56: (1526, 1059, 426),
          120: (1486, 1248, 422), 240: (1396, 1354, 421)}
CPU_MB = ("read (KB/s)", "write (KB/s)", "read CPU (ms/MB)")


@experiment(
    "abl_clsize", "Cluster-size sensitivity: why 56 KB, why 120 KB",
    "config A, 8-240 KB clusters: 8 MB written, then read cold",
    today(table({f"{kb} KB": v for kb, v in CLSIZE.items()}, CPU_MB),
          "reads stream at any cluster size; write KB/s grows and read CPU "
          "per byte falls with it")
    + [Cell("sizes where read CPU rises", None, exact(0),
            "fewer, larger transfers never cost more CPU per byte")],
    ratios=[ratio(kb, "8 KB", what, band, why) for kb, what, band, why in (
        ("56 KB", CPU_MB[0], (0.95, 1.1), "reads stream at any cluster size"),
        ("120 KB", CPU_MB[1], (3.0, 3.9), "more than triple the write speed"),
        ("120 KB", CPU_MB[2], (0.8, 0.93), "driver, bmap work per cluster"))])
def _abl_clsize(_sections):
    rows = {}
    for kb in CLSIZE:
        read, write, cpu, _ = _seq_rates(SystemConfig.config_a().with_(
            fs_params=FsParams.clustered(kb * KB)))
        rows[f"{kb} KB"] = (read, write, cpu / 8 * 1000)
    ms = [row[2] for row in rows.values()]
    return table(rows, CPU_MB) | {
        "sizes where read CPU rises": sum(b > a for a, b in zip(ms, ms[1:]))}


ZONE = ("read (KB/s)", "media (KB/s)", "ms per 120 KB cluster")


def _zone_read(zone_cyl: int):
    """A 1 MB file forced near cylinder ``zone_cyl``: one value per ZONE."""
    cfg = SystemConfig.config_a().with_(
        geometry=DiskGeometry.zoned_520mb(),
        fs_params=FsParams.clustered(120 * KB))
    system, proc = machine(cfg)
    mount, sb = system.mount, system.mount.sb
    spc_frags = cfg.geometry.heads * cfg.geometry.sectors_per_track_at(0) // 2
    target_cg = sb.cg_of_frag(min(zone_cyl * spc_frags,
                                  sb.total_frags - sb.fpg))

    def work():
        fd = yield from proc.creat("/zoned")
        vn = yield from mount.namei("/zoned")
        # Seed the first block in the target group; the allocator
        # continues contiguously from there.
        addr = yield from mount.allocator.alloc_block(
            vn.inode, sb.cg_data_frag(target_cg))
        yield from bmap.set_pointer(mount, vn.inode, 0, addr)
        for _ in range(MB // RECORD):
            yield from proc.write(fd, bytes(RECORD))
        yield from proc.fsync(fd)
        return vn

    vn = system.run(work())
    system.pagecache.vnode_drop_clean(vn)
    vn.inode.readahead.reset()
    rate = read_file(system, proc, "/zoned", cold=False)[1]
    cyl, _, _ = cfg.geometry.to_chs(
        system.run(bmap.get_pointer(mount, vn.inode, 1)) * 2)
    media = cfg.geometry.media_rate(cyl) / KB
    return rate, media, 120 * KB / (media * KB) * 1000


@experiment(
    "abl_zones", "§Extent based file systems: variable geometry",
    "a zoned 520 MB drive: a 1 MB file in one zone, read cold",
    today(table({"outer": (1814, 2160, 55.6), "middle": (1513, 1800, 66.7),
                 "inner": (1203, 1440, 83.3)}, ZONE),
          "the same tuning delivers what each zone can: no one fixed extent "
          "size is right everywhere"))
def _abl_zones(_sections):
    return table({zone: _zone_read(cyl) for zone, cyl in (
        ("outer", 50), ("middle", 700), ("inner", 1300))}, ZONE)


VOLUME_RUN = {"configs": "A", "file_mb": 4, "random_ops": 2048, "seed": 1991}


@experiment(
    "volume", "Stripe scaling: the volume layer",
    "IObench config A per layout: 4 MB file, 2048 random ops",
    today({"single FSR": 1481, "single FSW": 1223, "single FSU": 1241,
           "stripe:4 FSR": 2196, "stripe:4 FSW": 2457, "stripe:4 FSU": 2858,
           "stripe:4/single FSR": 1.48, "stripe:4/single FSU": 2.30,
           "mirror:2/single FRR": 0.998})
    + [Cell("stripe:4 FSR CPU utilisation", None, (0.9, 1.0),
            "FSR's shortfall from 2x is the CPU's: it is saturated"),
       Cell("mirror:2/single FSR", None, (0.8, 0.96),
            "a mirror's reads are never much worse than one disk's"),
       Cell("stripe:4/single FSW", None, (2.0, 2.3),
            "four spindles at least double one on sequential writes")]
    + [Cell(f"mirror:2/single {p}", None, (0.95, 1.05),
            "both legs are written in parallel: no write cost")
       for p in ("FSW", "FSU", "FRU")]
    + [Cell("concat:2 - single, largest rate difference", None, exact(0.0),
            "a file that fits member 0 is the single-disk run"),
       Cell("stripe:4 largest member share of bytes", None, (0.25, 0.3),
            "a stripe spreads the load evenly")],
    document=("BENCH_volume.json",
              {"benchmark": "volume", **VOLUME_RUN, "seq_floor": 2.0}))
def _volume(sections):
    for layout in ("single", "concat:2", "stripe:2", "stripe:4", "mirror:2"):
        sections[layout] = run_bench(**VOLUME_RUN,
                                     layout=layout)["results"]["A"]
    rates = {layout: cell["rates"] for layout, cell in sections.items()}
    single = rates["single"]
    metrics = sections["stripe:4"]["metrics"]
    moved = [metrics[f"disk.m{i}.driver"]["bytes"] for i in range(4)]
    seq = ("FSR", "FSW", "FSU")
    return {f"{layout} {p}": rates[layout][p]
            for layout in ("single", "stripe:4") for p in seq} | {
        f"stripe:4/single {p}": rates["stripe:4"][p] / single[p]
        for p in seq} | {
        f"mirror:2/single {p}": rates["mirror:2"][p] / single[p]
        for p in PHASES} | {
        "stripe:4 FSR CPU utilisation":
            sections["stripe:4"]["cpu_util"]["FSR"],
        "concat:2 - single, largest rate difference": max(
            abs(rates["concat:2"][p] - single[p]) for p in PHASES),
        "stripe:4 largest member share of bytes": max(moved) / sum(moved)}


SCHEDULER = ("FSR (KB/s)", "queue depth avg", "queue wait p95 (ms)")


@experiment(
    "pipeline", "The request pipeline and the pluggable scheduler",
    "per scheduler: IObench A (4 MB), a patterned 4 MB cold read",
    today(table({"elevator": (1481, 13.54, 2000),
                 "fifo": (1481, 14.15, 621.6),
                 "deadline": (1481, 13.6, 675.8)}, SCHEDULER))
    + [Cell("distinct read-back digests", None, exact(1),
            "a scheduler reorders requests, never bytes"),
       Cell("traced read: spans", None, exact(
           "biowait cluster_read disk_io getpage queue_wait read "
           "rotation_seek service transfer"),
            "one read(2) is a getpage, a cluster read and its disk I/O"),
       Cell("traced read: largest disk I/O (KB)", None, near(120),
            "the disk transfer is a cluster, not the 8 KB record")],
    document=("BENCH_pipeline.json", {"benchmark": "pipeline", **VOLUME_RUN}))
def _pipeline(sections):
    values = {}
    for sched in ("elevator", "fifo", "deadline"):
        system, proc = machine(SystemConfig.config_a().with_(scheduler=sched))
        write_file(system, proc, "/f", 4 * MB, fill=patterned, close=True)
        digest, rate, _ = read_file(system, proc, "/f")
        cell = run_bench(**VOLUME_RUN, scheduler=sched)["results"]["A"]
        sections[sched] = {**cell, "digest": digest, "seq_read_kbs": rate}
        metrics = cell["metrics"]
        values |= table({sched: (
            cell["rates"]["FSR"], metrics["disk.driver.queue_depth"]["avg"],
            metrics["disk.driver.wait"]["p95"] * 1e3)}, SCHEDULER)
    bench = IObench(SystemConfig.config_a(), file_size=4 * MB,
                    trace_phase="FSR")
    bench.run()
    tracer = bench.system.tracer
    root = next(s for s in tracer.span_roots()
                if s.name == "read" and s.fields.get("ios"))
    tree = [span for _, span in tracer.span_tree(root)]
    return values | {
        "distinct read-back digests": len(
            {cell["digest"] for cell in sections.values()}),
        "traced read: spans": " ".join(sorted({s.name for s in tree})),
        "traced read: largest disk I/O (KB)": max(
            s.fields["nsectors"] * 512 for s in tree
            if s.name == "disk_io") / KB}


def _scrubbed_read(interval: "float | None"):
    """A cold read on checksummed config A, scrubbed every ``interval``."""
    system, proc = machine(SystemConfig.config_a().with_(checksums=True))
    daemon = interval and system.start_scrub(interval=interval)
    write_file(system, proc, "/f", 4 * MB, fill=patterned, close=True)
    digest, rate, _ = read_file(system, proc, "/f")
    if not daemon:
        return digest, rate, 0, 0
    scanned, detected = daemon.report.frags_scanned, daemon.report.detected
    daemon.stop()
    return digest, rate, scanned, detected


@experiment(
    "scrub", "End-to-end integrity: what checksums and scrubbing cost",
    "IObench A (4 MB) with checksums or none; a cold read by a scrubber",
    today(table({"FSR": (1481, 1481), "FRR": (1053, 1050), "FRU": (485, 484)},
                ("plain", "checksummed"))
          | {"cold read alone (KB/s)": 1481,
             "fragments scanned meanwhile": 2048})
    + [Cell("checksummed/plain FSR", None, (0.95, 1.0),
            "verify-on-read costs well under the 15 % design bound"),
       Cell("cold read beside the scrub daemon (KB/s)", None, near(914),
            "the daemon defers to foreground I/O"),
       Cell("corruptions detected", None, exact(0), "a healthy disk"),
       Cell("reads differing", None, exact(0),
            "scrubbing never changes what a reader gets")],
    document=("BENCH_scrub.json",
              {"benchmark": "scrub", "configs": "A", "file_mb": 4}))
def _scrub(sections):
    off, on = (IObench(SystemConfig.config_a().with_(checksums=checksums),
                       file_size=4 * MB).run().rates
               for checksums in (False, True))
    sections["checksum_overhead"] = {
        "rates_off": off, "rates_on": on,
        "overhead_pct": {p: 100.0 * (1.0 - on[p] / off[p])
                         for p in sorted(off)},
        "seq_read_fraction": on["FSR"] / off["FSR"], "bound": 0.85}
    base_digest, base_rate, _, _ = _scrubbed_read(None)
    digest, rate, scanned, detected = _scrubbed_read(0.02)
    sections["daemon_interference"] = {
        "base_digest": base_digest, "base_rate": base_rate, "digest": digest,
        "rate": rate, "frags_scanned": scanned, "detected": detected}
    return table({p: (off[p], on[p]) for p in ("FSR", "FRR", "FRU")},
                 ("plain", "checksummed")) | {
        "checksummed/plain FSR": on["FSR"] / off["FSR"],
        "cold read alone (KB/s)": base_rate,
        "cold read beside the scrub daemon (KB/s)": rate,
        "fragments scanned meanwhile": scanned,
        "corruptions detected": detected,
        "reads differing": int(digest != base_digest)}


#: ``run_bench``'s arguments for the baseline, and its document's ``run``.
BASELINE_RUN = {"configs": "AC", "file_mb": 2, "layout": None,
                "random_ops": 128, "scheduler": None, "seed": 1991}


@experiment(
    "baseline", "Unified baseline: where the A/C gap lives",
    "repro bench --configs AC --file-mb 2 --ops 128 (the baseline)",
    today(table({"A": (1475, 1217, 1181, 484, 477),
                 "C": (777, 768, 756, 442, 527)}, PHASES))
    + today({"A reads: rotation+seek share of disk time": 0.601,
             "C reads: rotation+seek share of disk time": 0.742},
            "without clustering more of each read waits on the platter "
            "(the two bands do not overlap)")
    + [Cell("request kinds not conserved", None, exact(0),
            "every kind's categories sum to its total")],
    document=("BENCH_baseline.json", BASELINE_RUN))
def _baseline(sections):
    results = run_bench(**BASELINE_RUN)["results"]
    sections.update(results)
    values = table({c: [results[c]["rates"][p] for p in PHASES]
                    for c in "AC"}, PHASES)
    values["request kinds not conserved"] = 0
    for c in "AC":
        attribution = results[c]["attribution"]
        values["request kinds not conserved"] += sum(
            abs(sum(row["categories"].values()) - row["total"])
            > 1e-6 * abs(row["total"]) for row in attribution.values())
        cats = attribution["read"]["categories"]
        values[f"{c} reads: rotation+seek share of disk time"] = (
            cats["rotation_seek"]
            / sum(v for k, v in cats.items() if k != "cpu"))
    return values


def _scrub_bracket() -> dict:
    """Write, idle, scrub, idle, sampling queue depth and freemem."""
    system = System.booted(SystemConfig.config_a().with_(checksums=True))
    recorder = system.start_telemetry(
        0.010, ["vm.freemem", "disk.driver.queue_depth"])

    def idle(seconds):
        def anchor():
            yield system.engine.timeout(seconds)

        system.run(anchor(), name="idle")

    write_file(system, Proc(system), "/f", 4 * MB, fill=patterned, close=True)
    edges = [system.now]
    idle(0.5)
    edges.append(system.now)
    daemon = system.start_scrub(interval=0.02)
    idle(1.0)
    daemon.stop()
    edges += [system.now, float("inf")]
    idle(0.5)
    recorder.stop()
    qd = recorder.series("disk.driver.queue_depth", "avg")
    freemem = [v for _, v in recorder.series("vm.freemem", "value")]
    windows = {}
    for name, lo, hi in zip(("before", "during", "after"), edges, edges[1:]):
        inside = [v for t, v in qd if lo < t <= hi]
        windows[name] = sum(inside) / len(inside) if inside else 0.0
    return {"frags_scanned": daemon.report.frags_scanned,
            "samples": recorder.samples_taken,
            "queue_depth_windows": windows,
            "freemem_min": min(freemem), "freemem_max": max(freemem)}


@experiment(
    "trace_analytics", "Telemetry: free in simulated time, legible series",
    "IObench C (4 MB) with 10 ms telemetry or none; a scrub pass",
    today({"FSR (KB/s)": 780, "FSW (KB/s)": 769, "samples": 6534,
           "queue depth during": 0.605, "fragments scanned": 1216,
           "freemem max (pages)": 768, "freemem min (pages)": 256})
    + [Cell(f"{p} perturbation", None, exact(0.0),
            "sampling reads live counters from a daemon timer: rates are "
            "bit-identical") for p in ("FSR", "FSW")]
    + [Cell(f"queue depth {when}", None, exact(0.0),
            "the series brackets the scrub pass with an idle disk")
       for when in ("before", "after")],
    document=("BENCH_trace.json",
              {"benchmark": "trace_analytics", "file_mb": 4}))
def _trace_analytics(sections):
    off, on = (IObench(SystemConfig.config_c(), file_size=4 * MB,
                       telemetry_interval=interval)
               for interval in (None, 0.010))
    off_rates, on_rates = off.run().rates, on.run().rates
    perturbation = {p: abs(on_rates[p] - off_rates[p]) / off_rates[p]
                    for p in sorted(off_rates)}
    sections["telemetry_overhead"] = {
        "rates_off": off_rates, "rates_on": on_rates,
        "samples": on.telemetry.samples_taken, "perturbation": perturbation,
        "bound": 0.01}
    bracket = sections["scrub_bracket"] = _scrub_bracket()
    return {f"queue depth {when}": depth
            for when, depth in bracket["queue_depth_windows"].items()} | {
        "FSR (KB/s)": off_rates["FSR"], "FSW (KB/s)": off_rates["FSW"],
        "FSR perturbation": perturbation["FSR"],
        "FSW perturbation": perturbation["FSW"],
        "samples": on.telemetry.samples_taken,
        "fragments scanned": bracket["frags_scanned"],
        "freemem max (pages)": bracket["freemem_max"],
        "freemem min (pages)": bracket["freemem_min"]}


FAULT = ("read (KB/s)", "reads wrong", "retries", "retries exhausted")


def _transient_read(plan) -> tuple:
    """10 MB of PATTERN read cold on config A: one value per FAULT."""
    system = System.booted(SystemConfig.config_a(), fault_plan=plan)
    proc = Proc(system)
    write_file(system, proc, "/f", 10 * MB, fill=lambda _i: PATTERN)
    digest, rate, _ = read_file(system, proc, "/f")
    want = hashlib.sha256(PATTERN * (10 * MB // RECORD)).hexdigest()
    stats = system.driver.stats
    return (rate, int(digest != want), stats["retries"],
            stats["retries_exhausted"])


@experiment(
    "fault_read", "Robustness: a clustered read over a flaky disk",
    "10 MB read cold on config A: no faults, p = 0.01 transients",
    today({"fault-free: read (KB/s)": 1490,
           "transient faults: read (KB/s)": 1490},
          "backoff is milliseconds: retries cost almost nothing")
    + [Cell("transient faults: retries", None, near(1),
            "the faults fired and were retried")]
    + [Cell(name, None, exact(0), "every byte delivered, bounded retries")
       for name in ("fault-free: reads wrong", "transient faults: reads wrong",
                    "transient faults: retries exhausted")])
def _fault_read(_sections):
    from repro.faults import FaultPlan

    return table({"fault-free": _transient_read(None)[:2],
                  "transient faults": _transient_read(
                      FaultPlan(seed=42, read_transient_p=1e-2))}, FAULT)


LOSS = {0.0: (342, 1136, 4), 0.01: (296, 1136, 5), 0.05: (214, 689, 9),
        0.10: (205, 125, 24)}
GOODPUT = ("write (KB/s)", "read (KB/s)", "retransmits", "reads wrong")


def _lossy_transfer(drop_p: float):
    """One value per GOODPUT on a wire dropping ``drop_p``; mount stats."""
    from repro.faults import NetFaultPlan
    from repro.nfs import build_world

    # Default timeo (1.1 s): write-behind bursts queue ~0.2 s of datagrams
    # on a 10 Mbit wire, so a short RTO would retransmit spuriously.
    client, _server, mount = build_world(
        fault_plan=NetFaultPlan(seed=11, drop_p=drop_p) if drop_p else None)
    proc = Proc(client)
    _, write = write_file(client, proc, "/f", 256 * KB,
                          fill=lambda _i: PATTERN)
    client.pagecache.vnode_invalidate(client.run(mount.namei("/f")))
    digest, read, _ = read_file(client, proc, "/f", cold=False)
    want = hashlib.sha256(PATTERN * 32).hexdigest()
    return (write, read, mount.stats["retransmits"],
            int(digest != want)), mount.stats


@experiment(
    "nfs_loss", "Robustness: NFS goodput vs datagram loss",
    "256 KB written, fsynced, re-read cold over NFS losing 0-10 %",
    today(table({f"{p:.0%} loss": v for p, v in LOSS.items()}, GOODPUT),
          "loss costs goodput (RTO waits), never bytes", tol=0.15)
    + [Cell(f"{p:.0%} loss: reads wrong", None, exact(0),
            "every byte correct at every loss rate") for p in LOSS]
    + [Cell("0% loss: major timeouts", None, exact(0),
            "the RTO estimator learns the wire's queueing delay")]
    + today({"0% loss: RPC timeouts": 4}, "a handful, on write-behind "
            "bursts; the duplicate-request cache absorbs them", tol=0.15))
def _nfs_loss(_sections):
    values = {}
    for p in LOSS:
        measured, stats = _lossy_transfer(p)
        values |= table({f"{p:.0%} loss": measured}, GOODPUT)
        if not p:
            values["0% loss: major timeouts"] = stats["major_timeouts"]
            values["0% loss: RPC timeouts"] = stats["rpc_timeouts"]
    return values


def _sanitized_run() -> tuple:
    """IObench C, sanitized, FSW traced, then sync and a deep check: the
    raw trace's sha256, rates, request counts, spans and checks run."""
    bench = IObench(SystemConfig.config_c(), file_size=2 * MB,
                    random_ops=128, trace_phase="FSW")
    with sanitizing(True):
        rates = bench.run().rates
    system = bench.system
    system.sync()
    system.sanitizer.checkpoint("determinism_end", idle=True, deep=True)
    trace = hashlib.sha256(system.tracer.to_jsonl().encode()).hexdigest()
    return (trace, rates, system.requests.stats.as_dict(),
            len(system.tracer.spans), system.sanitizer.checks_run)


@experiment(
    "determinism", "Determinism: the same seed, the same history",
    "IObench C twice in one process, sanitized: 2 MB file, 128 random ops, "
    "FSW traced, then sync and a deep check",
    [Cell(f"{what} differing", None, exact(0), why) for what, why in (
        ("traces", "span, request and buf ids are per machine: the raw "
                   "JSONL is byte-identical"),
        ("rates", "same seed, same simulated time"),
        ("request counts", "same seed, same requests"))]
    + today({"spans per run": 2008, "sanitizer checks per run": 150}))
def _determinism(_sections):
    (trace, rates, counts, spans, checks), (trace2, rates2, counts2, *_) = (
        _sanitized_run(), _sanitized_run())
    return {"traces differing": int(trace != trace2),
            "rates differing": sum(rates[p] != rates2[p] for p in PHASES),
            "request counts differing": sum(
                counts.get(k) != counts2.get(k) for k in counts | counts2),
            "spans per run": spans, "sanitizer checks per run": checks}


# -- the sweeps: durability, robustness and integrity campaigns ---------------

#: Per sweep, the invariants its stats imply: each cell is 0 when it held.
IMPLIED = {
    "crashpoints": {"violations": lambda c: len(c.records)},
    "netcampaign": {"injection inert": lambda c: int(
        c.stats.retransmits == 0 or c.stats.drc_hits == 0)},
    "scrubcampaign": {
        "detected short of injected": lambda c: int(
            c.stats.detected < c.stats.injected),
        "fsck not clean": lambda c: int(not c.stats.fsck_clean)},
}


def sweep_cells(campaign) -> dict:
    """A finished sweep's cells: each counter (``_`` read as a space), the
    :data:`IMPLIED` invariants, the sha256 of its canonical ``[stats,
    records]`` ("outcome sha256") and its ``digest``."""
    stats = asdict(campaign.stats)
    outcome = json.dumps([stats, campaign.records], sort_keys=True,
                         separators=(",", ":"))
    return {name.replace("_", " "): value for name, value in stats.items()} | {
        name: implied(campaign)
        for name, implied in IMPLIED.get(campaign.name, {}).items()} | {
        "outcome sha256": hashlib.sha256(outcome.encode()).hexdigest(),
        "digest": campaign.digest}


#: Per sweep row, the keyword arguments its campaign runs with (seed 0).
SWEEPS: dict[str, dict] = {}


def sweep_row(name: str, run: dict, defaults: dict
              ) -> "tuple[Experiment, bool]":
    """The row a run of sweep ``name`` reports — its preset's, else the
    kind's first — and whether ``run`` is that row's own invocation:
    ``defaults`` with the keyword arguments the row sets."""
    ids = [id for id in SWEEPS if id.partition("_")[0] == name]
    id = next((id for id in ids
               if SWEEPS[id].get("preset") == run.get("preset")), ids[0])
    return EXPERIMENTS[id], run == defaults | SWEEPS[id]


def sweep(id: str, paper_section: str, workload: str, cls: str, kwargs: dict,
          invariants: dict, outcome: tuple, coverage: dict) -> None:
    """Row ``id``: ``module:Class(**kwargs)`` swept sanitized (and, to hold
    "outcome differs unsanitized", again without), each invariant exact 0,
    the ``outcome`` fingerprints exact and the ``coverage`` counters banded."""
    cells = ([Cell(name, None, exact(0), reason)
              for name, reason in invariants.items()]
             + [Cell(name, None, exact(value), reason) for name, value, reason
                in zip(("outcome sha256", "digest"), outcome, (
                    "every counter and record, byte for byte",
                    "the sorted per-record (per-state) outcome lines"))]
             + today(coverage, "coverage: what the sweep exercised"))

    def swept(sanitize: bool) -> dict:
        module, _, name = cls.partition(":")
        campaign = getattr(import_module(module), name)(**kwargs)
        with sanitizing(sanitize):
            campaign.run()
        return sweep_cells(campaign)

    def run(_sections: dict) -> dict:
        values = swept(True)
        if "outcome differs unsanitized" in invariants:
            values["outcome differs unsanitized"] = int(
                swept(False)["outcome sha256"] != values["outcome sha256"])
        return {cell.name: values[cell.name] for cell in cells}

    EXPERIMENTS[id] = Experiment(id, paper_section, workload, run, tuple(cells))
    SWEEPS[id] = kwargs


def _crashpoints(preset: str, what: str, outcome: tuple, states: int,
                 repairs: int) -> None:
    sweep(f"crashpoints_{preset}",
          "Footnote 5: an acknowledged write is durable, in every crash "
          "state", f"crashpoints --preset {preset} --seed 0, sanitized: "
          f"{what}", "repro.faults:CrashpointExplorer", {"preset": preset},
          {"violations": "every distinct crash state repairs, remounts and "
                         "keeps every fsync's promise"}, outcome,
          {"distinct states": states, "fsck repairs": repairs})


_crashpoints(
    "smoke", "appends, an overwrite, a rename, an unlink; 48 KB cache",
    ("af0f4233dff26d8da1b49fe21acbd862d13b99a02c84120c3683c53b653c1842",
     "315f8f0fd92f045462de4fb9a43348270da234a83f37e891b7e9280961c6bf33"),
    424, 438)
_crashpoints(
    "relocate", "a fragment tail relocated, its old fragments reused",
    ("d65e2d795ae68371475071874993563a67dec051a9ee18c542a2caf471debe90",
     "23cdc6bc8e800661e1554d5f6a731956a69a15beb561323b58368460f17273ab"),
    26, 27)
_crashpoints(
    "writethrough", "10 x 48 KB files, half fsynced, on the paper's drive",
    ("7bf61b964e336019985c5962675432dfebd42cb91e17e3b346c61ba3a54ce8a6",
     "0d651bfced28b92c0fd5d9eea7197436d386fa9a42e4f1e6cb0a90374cf3d69f"),
    75, 83)
_crashpoints(
    "nfs", "4 x 16 KB files from an NFS client, half fsynced (biod WRITEs "
    "and a COMMIT), one removed; the server's drive, 16 KB cache",
    ("93af72fce4175fc3d9fe691a37726b2ce680c634e80ee0f8c4469c67e1dbfbfd",
     "8ca1b838afe9e90c07381347245909fe81828d72e2cc84b6192049b7ab4868a7"),
    191, 209)
_crashpoints(
    "mirror", "2 files x 4 appends, an overwrite, a rename, an unlink on "
    "mirror:2, 48 KB cache per leg; each leg's crash states resynced from "
    "it, each leg's death remounted degraded, then resynced",
    ("5d5aea6ffe7d440510732522170a1a44cc1c2c04ca99540255431431c766fe69",
     "b3253abb7a3906c30b43d402156ee2636093eb8a79dbd15fa843bb38532deeb3"),
    302, 234)
_crashpoints(
    "stripe", "2 files x 5 appends, an overwrite, a rename, an unlink on "
    "stripe:2, 48 KB cache per member; the product of the members' crash "
    "states",
    ("595c9b9a3a3b646587b6e60f1e9f137ab775e5637e467661e1cfb3d284e09006",
     "aab85b76649418f4182ceec36c7a5b863b8e20f208a336210e9ddc7a9640895f"),
    211, 224)

sweep("netcampaign", "Robustness: acknowledged writes over a faulty wire",
      "netcampaign --seeds 5 --seed 0, sanitized, then unsanitized: NFS "
      "create/write/fsync/remove through drops, duplicates, corruption "
      "and partitions",
      "repro.faults:NetCampaign", {"seeds": 5},
      {"lost acked writes": "every byte a returned fsync covered reads back",
       "corrupt cache serves": "a damaged reply dies at the checksum",
       "duplicate side effects": "a retransmitted mutation runs once",
       "remove violations": "every removed path is ENOENT afterwards",
       "soft timeout failures": "a partitioned soft mount fails fast",
       "determinism failures": "the first seed, replayed, is the same",
       "injection inert": "it retransmitted and hit the DRC: faults fired",
       "outcome differs unsanitized": "the sanitizer observes, never steers"},
      ("21c187e8ab62464f123ea9772fe1d152dbc854216075b0eb730bba21462e0421",),
      {"retransmits": 29, "drc hits": 19, "corruptions injected": 5})

sweep("scrubcampaign", "Integrity: seeded silent corruption, scrubbed",
      "scrubcampaign --seed 0, sanitized: 10 corruptions (bit rot, "
      "misdirected, torn, zeroed) in 8 files and the metadata, one scrub "
      "pass, a rewrite, a second pass",
      "repro.integrity:ScrubCampaign", {},
      {"detect misses": "every injected corruption is detected",
       "outcome mismatches": "repaired from the source expected, or not",
       "verify failures": "a repaired fragment holds the original bytes",
       "eio misses": "an unrepairable read gives the clean prefix, then EIO",
       "residual detected": "a rewrite rehabilitates: a second pass is clean",
       "detected short of injected": "the scrub reports every injection",
       "fsck not clean": "fsck is clean after rehabilitation"},
      ("aa37c7d08c88a74ad499e66e15fba1cff602bb5b3de1aca637f4be829cac4784",
       "521c7e0abe2a64a1b1b815b3a32a61ce81f1cd2ae092e65337389903daf9a2ac"),
      {"injected": 10, "repaired from cache": 4, "repaired from replica": 2})
