"""Cross-layer integration: concurrency, pressure, persistence, recovery."""

from repro.disk import DiskGeometry
from repro.kernel import Proc, System, SystemConfig
from repro.ufs import fsck
from repro.ufs.mount import UfsMount
from repro.units import KB, MB


def build(config="A", **overrides):
    cfg = SystemConfig.by_name(config).with_(
        geometry=DiskGeometry.uniform(cylinders=300, heads=4,
                                      sectors_per_track=32),
        **overrides,
    )
    return System.booted(cfg)


def pattern(seed, nbytes):
    return bytes((i * seed + seed) % 251 for i in range(nbytes))


def test_concurrent_writers_do_not_corrupt():
    system = build()
    payloads = {i: pattern(i + 1, 200 * KB) for i in range(4)}

    def writer(i):
        proc = Proc(system, f"w{i}")
        fd = yield from proc.creat(f"/file{i}")
        data = payloads[i]
        for start in range(0, len(data), 8 * KB):
            yield from proc.write(fd, data[start:start + 8 * KB])
        yield from proc.fsync(fd)
        yield from proc.close(fd)

    system.run_all([writer(i) for i in range(4)])

    def reader(i):
        proc = Proc(system, f"r{i}")
        fd = yield from proc.open(f"/file{i}")
        parts = []
        while True:
            piece = yield from proc.read(fd, 32 * KB)
            if not piece:
                break
            parts.append(piece)
        return b"".join(parts)

    results = system.run_all([reader(i) for i in range(4)])
    for i, data in enumerate(results):
        assert data == payloads[i], f"file {i} corrupted"
    system.sync()
    assert fsck(system.store).clean


def test_reader_sees_writers_data_through_cache():
    system = build()
    a, b = Proc(system, "a"), Proc(system, "b")

    def writer():
        fd = yield from a.creat("/pipe")
        yield from a.write(fd, b"fresh data")
        yield from a.close(fd)

    def reader():
        yield system.engine.timeout(0.5)
        fd = yield from b.open("/pipe")
        data = yield from b.read(fd, 100)
        return data

    results = system.run_all([writer(), reader()])
    assert results[1] == b"fresh data"


def test_memory_pressure_with_concurrent_streams():
    """Two processes streaming more than memory concurrently: data stays
    correct, nothing deadlocks, pageout keeps the system alive."""
    system = build()
    sizes = {0: 5 * MB, 1: 4 * MB}

    def streamer(i):
        proc = Proc(system, f"s{i}")
        fd = yield from proc.creat(f"/stream{i}")
        chunk = pattern(i + 3, 64 * KB)
        for _ in range(sizes[i] // len(chunk)):
            yield from proc.write(fd, chunk)
        yield from proc.fsync(fd)
        # Read it all back through the (overcommitted) cache.
        yield from proc.lseek(fd, 0)
        total = 0
        while True:
            piece = yield from proc.read(fd, 64 * KB)
            if not piece:
                break
            assert piece == chunk[:len(piece)]
            total += len(piece)
        return total

    results = system.run_all([streamer(0), streamer(1)])
    assert results == [sizes[0], sizes[1]]
    assert system.pageout.stats["wakeups"] > 0 or \
        system.mount.stats["freebehind"] > 0


def test_remount_after_sync_preserves_tree():
    system = build()
    proc = Proc(system)

    def populate():
        yield from proc.mkdir("/docs")
        yield from proc.mkdir("/docs/deep")
        fd = yield from proc.creat("/docs/deep/file.txt")
        yield from proc.write(fd, pattern(9, 100 * KB))
        yield from proc.close(fd)

    system.run(populate())
    system.sync()
    assert fsck(system.store).clean

    mount2 = UfsMount(system.engine, system.metrics, system.cpu, system.driver,
                      system.pagecache, tuning=system.config.tuning)

    def verify():
        yield from mount2.activate()
        vn = yield from mount2.namei("/docs/deep/file.txt")
        return vn.size

    assert system.run(verify()) == 100 * KB


def test_unlink_under_old_system_is_clean():
    system = build("D")
    proc = Proc(system)

    def churn():
        for i in range(20):
            fd = yield from proc.creat(f"/t{i}")
            yield from proc.write(fd, bytes((i + 1) * 3 * KB))
            yield from proc.fsync(fd)
            yield from proc.close(fd)
        for i in range(0, 20, 2):
            yield from proc.unlink(f"/t{i}")

    system.run(churn())
    system.sync()
    report = fsck(system.store)
    assert report.clean, str(report)


def test_mixed_configs_share_nothing():
    """Two independent systems do not interfere (no global state leaks)."""
    s1, s2 = build("A"), build("D")
    p1, p2 = Proc(s1), Proc(s2)

    def w(proc, data):
        fd = yield from proc.creat("/x")
        yield from proc.write(fd, data)
        yield from proc.fsync(fd)

    s1.run(w(p1, b"system one"))
    s2.run(w(p2, b"system two is different"))

    def r(proc):
        fd = yield from proc.open("/x")
        return (yield from proc.read(fd, 100))

    assert s1.run(r(p1)) == b"system one"
    assert s2.run(r(p2)) == b"system two is different"
