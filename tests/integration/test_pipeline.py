"""End-to-end request pipeline: spans across layers, scheduler plumbing."""

from repro.disk import DiskGeometry
from repro.kernel import Proc, System, SystemConfig
from repro.units import KB

RECORD = 8 * KB
FILE_SIZE = 512 * KB


def small_config(**changes):
    geom = DiskGeometry.uniform(cylinders=200, heads=4, sectors_per_track=32)
    return SystemConfig.config_a().with_(geometry=geom, **changes)


def write_and_evict(system, proc, path="/f"):
    def work():
        fd = yield from proc.creat(path)
        for i in range(FILE_SIZE // RECORD):
            yield from proc.write(fd, bytes([i % 251]) * RECORD)
        yield from proc.fsync(fd)
        yield from proc.close(fd)

    system.run(work())
    vn = system.run(system.mount.namei(path))
    for page in system.pagecache.vnode_pages(vn):
        if not page.locked and not page.dirty:
            system.pagecache.destroy(page)
    vn.inode.readahead.reset()


def read_all(system, proc, path="/f"):
    chunks = []

    def work():
        fd = yield from proc.open(path)
        while True:
            data = yield from proc.read(fd, RECORD)
            if not data:
                break
            chunks.append(data)
        yield from proc.close(fd)

    system.run(work())
    return b"".join(chunks)


def test_traced_sequential_read_yields_cluster_sized_span_tree():
    system = System.booted(small_config())
    proc = Proc(system)
    write_and_evict(system, proc)

    system.tracer.enabled = True
    data = read_all(system, proc)
    system.tracer.enabled = False
    assert len(data) == FILE_SIZE

    tracer = system.tracer
    reads = [s for s in tracer.span_roots() if s.name == "read"]
    assert reads, "no read request opened a root span"
    # At least one syscall read's tree goes all the way to the disk, and
    # the transfer it reaches is cluster-sized (> the 8 KB record).
    cluster_hits = 0
    for root in reads:
        tree = tracer.span_tree(root)
        disk_ios = [s for _, s in tree if s.name == "disk_io"]
        if not disk_ios:
            continue  # a cache hit (read-ahead already brought it in)
        names = {s.name for _, s in tree}
        assert "getpage" in names
        assert "cluster_read" in names
        if max(s.fields["nsectors"] * 512 for s in disk_ios) > RECORD:
            cluster_hits += 1
    assert cluster_hits > 0
    # Most reads were cache hits: far fewer disk-reaching requests than
    # syscalls — the clustering effect, visible from the span trees alone.
    disk_reads = [s for s in reads if s.fields.get("ios")]
    assert len(disk_reads) < len(reads) / 2


def test_request_accounting_without_tracing():
    system = System.booted(small_config())
    proc = Proc(system)
    write_and_evict(system, proc)
    data = read_all(system, proc)
    assert len(data) == FILE_SIZE

    assert system.tracer.spans == []  # tracing stayed off
    report = system.requests.report()
    assert report["counts"]["read_started"] == FILE_SIZE // RECORD + 1
    assert report["counts"]["write_started"] == FILE_SIZE // RECORD
    assert report["latency"]["read"]["count"] == FILE_SIZE // RECORD + 1
    assert report["counts"]["bytes"] > 0
    # The driver kept per-layer histograms too.
    assert system.driver.wait_hist.summary()["count"] > 0
    assert system.driver.service_hist.summary()["count"] > 0


def test_schedulers_selectable_and_byte_identical():
    payloads = {}
    for name in ("elevator", "fifo", "deadline"):
        system = System.booted(small_config(scheduler=name))
        assert system.driver.scheduler_name == name
        proc = Proc(system)
        write_and_evict(system, proc)
        payloads[name] = read_all(system, proc)
    assert payloads["elevator"] == payloads["fifo"] == payloads["deadline"]

