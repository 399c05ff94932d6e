"""Figures 3, 6, and 7: the read-ahead and write-clustering event traces.

These regenerate the paper's per-page box diagrams by tracing what
ufs_getpage/ufs_putpage actually did while a process touched pages in
order, and render them in the same style.
"""

from repro.disk import DiskGeometry
from repro.kernel import Proc, System, SystemConfig
from repro.ufs import FsParams
from repro.core import ClusterTuning
from repro.units import KB

PAGE = 8 * KB


def build_system(maxcontig_blocks, read_clustering, write_clustering):
    cfg = SystemConfig(
        name="trace",
        geometry=DiskGeometry.uniform(cylinders=200, heads=4,
                                      sectors_per_track=32),
        fs_params=FsParams(rotdelay_ms=0.0, maxcontig=maxcontig_blocks),
        tuning=ClusterTuning(
            read_clustering=read_clustering,
            write_clustering=write_clustering,
            freebehind=False, write_limit=0,
        ),
    )
    system = System.booted(cfg)
    system.tracer.enabled = True
    return system


def render_boxes(events_per_page):
    """Figure 3/6/7 style: one box per page, actions inside."""
    headers = [f"page {i}" for i in range(len(events_per_page))]
    width = max(
        [len(h) for h in headers]
        + [len(line) for cell in events_per_page for line in cell]
    ) + 2
    depth = max(len(cell) for cell in events_per_page)
    rows = ["|" + "|".join(h.center(width) for h in headers) + "|"]
    for level in range(depth):
        cells = []
        for cell in events_per_page:
            text = cell[level] if level < len(cell) else ""
            cells.append(text.center(width))
        rows.append("|" + "|".join(cells) + "|")
    return "\n".join(rows)


def test_fig6_clustered_read_trace(once):
    """maxcontig=3: sync 0-2 + async 3-5 at page 0; async 6-8 at page 3."""
    system = once(lambda: build_system(3, True, True))
    proc = Proc(system)
    npages = 9

    def setup():
        fd = yield from proc.creat("/traced")
        yield from proc.write(fd, bytes(npages * PAGE))
        yield from proc.fsync(fd)
        return fd

    fd = system.run(setup())
    vn = system.run(system.mount.namei("/traced"))
    system.pagecache.vnode_drop_clean(vn)
    vn.inode.readahead.reset()
    system.tracer.clear()

    cells = [[] for _ in range(npages)]
    for i in range(npages):
        def one(i=i):
            yield from proc.pread(fd, PAGE, i * PAGE)

        before = len(system.tracer.records)
        system.run(one())
        for rec in system.tracer.records[before:]:
            if rec.tag not in ("getpage_sync", "readahead"):
                continue
            first = rec.offset // PAGE
            last = first + rec.bytes // PAGE - 1
            kind = "sync" if rec.tag == "getpage_sync" else "async"
            cells[i].append(f"{kind} {first},..,{last}")

    print("\nFigure 6: clustered reads with maxcontig = 3")
    print(render_boxes(cells))
    assert cells[0] == ["sync 0,..,2", "async 3,..,5"]
    assert cells[1] == [] and cells[2] == []
    assert cells[3] == ["async 6,..,8"]
    assert cells[4] == [] and cells[5] == []
    assert cells[6] == []  # 9..11 is past EOF: nothing to prefetch


def test_fig3_block_read_trace(once):
    """maxcontig=1 (old system): every fault reads ahead one page."""
    system = once(lambda: build_system(1, False, False))
    proc = Proc(system)
    npages = 4

    def setup():
        fd = yield from proc.creat("/traced")
        yield from proc.write(fd, bytes(npages * PAGE))
        yield from proc.fsync(fd)
        return fd

    fd = system.run(setup())
    vn = system.run(system.mount.namei("/traced"))
    system.pagecache.vnode_drop_clean(vn)
    vn.inode.readahead.reset()
    system.tracer.clear()

    cells = [[] for _ in range(npages)]
    for i in range(npages):
        def one(i=i):
            yield from proc.pread(fd, PAGE, i * PAGE)

        before = len(system.tracer.records)
        system.run(one())
        for rec in system.tracer.records[before:]:
            if rec.tag not in ("getpage_sync", "readahead"):
                continue
            page = rec.offset // PAGE
            kind = "sync read" if rec.tag == "getpage_sync" else "async read"
            cells[i].append(f"{kind} {page}")

    print("\nFigure 3: old-system read ahead (one block at a time)")
    print(render_boxes(cells))
    assert cells[0] == ["sync read 0", "async read 1"]
    assert cells[1] == ["async read 2"]
    assert cells[2] == ["async read 3"]
    assert cells[3] == []  # page 4 would be past EOF


def test_fig7_clustered_write_trace(once):
    """maxcontig=3: lie, lie, push 0-2; lie, lie, push 3-5."""
    system = once(lambda: build_system(3, True, True))
    proc = Proc(system)
    npages = 6

    def open_file():
        return (yield from proc.creat("/traced"))

    fd = system.run(open_file())
    cells = [[] for _ in range(npages)]
    for i in range(npages):
        def one(i=i):
            yield from proc.pwrite(fd, bytes(PAGE), i * PAGE)

        before = len(system.tracer.records)
        system.run(one())
        for rec in system.tracer.records[before:]:
            if rec.tag == "write_delayed":
                cells[i].append("lie")
            elif rec.tag == "write_cluster_push":
                first = rec.offset // PAGE
                last = first + rec.bytes // PAGE - 1
                cells[i].append(f"push {first},..,{last}")

    print("\nFigure 7: clustered writes with maxcontig = 3")
    print(render_boxes(cells))
    assert cells[0] == ["lie"] and cells[1] == ["lie"]
    assert cells[2] == ["push 0,..,2"]
    assert cells[3] == ["lie"] and cells[4] == ["lie"]
    assert cells[5] == ["push 3,..,5"]
