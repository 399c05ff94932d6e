"""MetricsRegistry: registration rules, rendering, and system wiring.

The last tests hold the registry to being the machine's one stats
surface: every layer creates its counters, gauges and histograms through
the registry where it is built, so an instrument that no registry holds
is either named in ``DARK`` below or a wiring fault.
"""

from collections import deque

import pytest

from repro.disk import DiskGeometry
from repro.faults import FaultPlan, NetFaultPlan
from repro.kernel import Proc, System, SystemConfig
from repro.nfs import build_world
from repro.obs.metrics import MetricsRegistry
from repro.s5fs import S5FileSystem, s5_mkfs
from repro.sim import Engine, Histogram, StatSet, TimeWeighted
from repro.units import KB


@pytest.fixture
def registry():
    return MetricsRegistry(Engine())


def test_register_rejects_empty_namespace(registry):
    with pytest.raises(ValueError):
        registry.register("", StatSet("x"))


def test_register_rejects_duplicates(registry):
    first = registry.register("disk", StatSet("disk"))
    with pytest.raises(ValueError):
        registry.register("disk", StatSet("disk2"))
    assert registry.get("disk") is first


def test_register_rejects_non_instruments(registry):
    with pytest.raises(TypeError):
        registry.register("bad", 42)


def test_factories_create_then_fetch(registry):
    c = registry.counters("a.counts")
    h = registry.histogram("a.hist")
    g = registry.gauge("a.gauge", initial=3.0)
    assert registry.counters("a.counts") is c
    assert registry.histogram("a.hist") is h
    assert registry.gauge("a.gauge") is g
    assert g.value == 3.0
    assert registry.namespaces() == ["a.counts", "a.gauge", "a.hist"]
    assert "a.counts" in registry and "missing" not in registry


def test_snapshot_renders_every_shape(registry):
    registry.counters("c").incr("reads", 2)
    registry.histogram("h").observe(4.0)
    registry.gauge("g").set(7.0)
    registry.register("dyn", lambda: {"k": 1})
    snap = registry.snapshot()
    assert snap["c"] == {"reads": 2}
    assert snap["h"]["count"] == 1 and snap["h"]["mean"] == 4.0
    assert snap["g"]["value"] == 7.0
    assert snap["dyn"] == {"k": 1}
    assert list(snap) == sorted(snap)


def test_callable_source_must_return_dict(registry):
    registry.register("dyn", lambda: [1, 2])
    with pytest.raises(TypeError):
        registry.snapshot()


def test_booted_system_registers_every_layer():
    system = System.booted(SystemConfig.config_a())
    namespaces = system.metrics.namespaces()
    for expected in ("cpu", "requests", "requests.latency", "disk.driver",
                     "disk.mech", "vm.pagecache", "vm.freemem", "ufs",
                     "ufs.metacache", "ufs.throttle"):
        assert expected in namespaces, expected
    # The snapshot reflects live counters: run I/O, watch them move.
    before = system.metrics.snapshot()["requests"].get("completed", 0)
    proc = Proc(system)

    def workload():
        fd = yield from proc.creat("/m")
        yield from proc.write(fd, b"z" * 8192)
        yield from proc.fsync(fd)
        yield from proc.close(fd)

    system.run(workload())
    assert system.metrics.snapshot()["requests"]["completed"] > before


def test_multi_member_volume_gets_per_member_namespaces():
    config = SystemConfig.config_a().with_(layout="stripe:2")
    system = System.booted(config)
    namespaces = system.metrics.namespaces()
    for expected in ("volume", "volume.queue_depth", "disk.m0.driver",
                     "disk.m0.mech", "disk.m1.driver", "disk.m1.mech"):
        assert expected in namespaces, expected


def test_remounted_system_has_a_fresh_registry():
    system = System.booted(SystemConfig.config_a())
    survivor = System.remounted(system.store, system.config)
    assert survivor.metrics is not system.metrics
    assert "ufs" in survivor.metrics


# -- one stats surface ------------------------------------------------------

#: The instruments no registry holds, by ``module:Class.attribute``: the
#: namespace each would take and what lighting it would move.  Every
#: committed number is re-recorded on purpose or not at all, so an entry
#: leaves this table only in a change that re-records what it names.
DARK = {
    "vm/pageout.py:PageoutDaemon.stats": (
        "vm.pageout", "every perfbench sim_digest; BENCH_baseline.json, "
        "BENCH_volume.json and BENCH_pipeline.json (cells carry the "
        "snapshot)"),
    "integrity/checksum.py:IntegrityRegion.stats": (
        "integrity", "nfs_stripe's sim_digest (its server is checksummed)"),
    "faults/plan.py:FaultPlan.stats": (
        "faults", "no committed number: no document or digest snapshots "
        "a machine with a fault plan"),
    "faults/netplan.py:NetFaultPlan.stats": (
        "netfaults", "no committed number: no document or digest "
        "snapshots a machine on a lossy wire"),
    "nfs/client.py:NfsMount.stats": (
        "nfs", "nfs_stripe's sim_digest (the client's snapshot)"),
    "nfs/client.py:NfsMount.throttle_stats": (
        "nfs.throttle", "nfs_stripe's sim_digest (the client's snapshot)"),
    "nfs/net.py:Network.stats": (
        "net", "nfs_stripe's sim_digest (a machine's snapshot)"),
    "nfs/server.py:NfsServer.stats": (
        "nfsd", "nfs_stripe's sim_digest (the server's snapshot)"),
}

#: Instruments a registered callable renders rather than the registry
#: holding them: the per-kind latency histograms, made as kinds appear.
RENDERED = {"sim/request.py:RequestRegistry.latency": "requests.latency"}

INSTRUMENTS = (StatSet, TimeWeighted, Histogram)
SMALL = DiskGeometry.uniform(cylinders=200, heads=4, sectors_per_track=32)


def _attributes(obj):
    """``(name, value)`` of an object's instance attributes and slots."""
    yield from getattr(obj, "__dict__", {}).items()
    for cls in type(obj).__mro__:
        for name in getattr(cls, "__slots__", ()):
            if hasattr(obj, name):
                yield name, getattr(obj, name)


def _holders(*roots):
    """Every instrument reachable from ``roots`` through the attributes
    of ``repro`` objects and the containers they hold, as ``{id:
    (instrument, {"module:Class.attribute" holding it})}``."""
    found: dict = {}
    seen: set = set()
    todo = deque((root, None) for root in roots)
    while todo:
        obj, holder = todo.popleft()
        if isinstance(obj, INSTRUMENTS):
            found.setdefault(id(obj), (obj, set()))[1].add(holder)
            continue
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, dict):
            todo.extend((value, holder) for value in obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset, deque)):
            todo.extend((value, holder) for value in obj)
        elif type(obj).__module__.startswith("repro."):
            module = type(obj).__module__[len("repro."):].replace(".", "/")
            owner = f"{module}.py:{type(obj).__name__}"
            todo.extend((value, f"{owner}.{name}")
                        for name, value in _attributes(obj))
    return found


def _dark(roots, registries):
    """The holders of every reachable instrument no registry in
    ``registries`` holds and no registered callable renders."""
    held = {id(reg.get(ns)) for reg in registries for ns in reg.namespaces()}
    rendered = {holder for holder, ns in RENDERED.items()
                if any(ns in reg for reg in registries)}
    return {frozenset(holders) for key, (_, holders)
            in _holders(*roots).items()
            if key not in held and not holders & rendered}


def _churn(system, path="/f"):
    """Write, fsync and read back one file, so the instruments made on
    first use (per-kind latencies, a file's throttle) exist."""
    proc = Proc(system)

    def work():
        fd = yield from proc.open(path, create=True)
        yield from proc.write(fd, bytes(16 * KB))
        yield from proc.fsync(fd)
        yield from proc.close(fd)
        fd = yield from proc.open(path)
        yield from proc.read(fd, 16 * KB)
        yield from proc.close(fd)

    system.run(work())


def _booted(**changes):
    system = System.booted(
        SystemConfig.config_a().with_(geometry=SMALL, **changes))
    _churn(system)
    return system


def _mirror_scrubbed():
    system = _booted(layout="mirror:2", write_cache=True, checksums=True)
    system.start_scrub(interval=0.05)
    _churn(system, "/g")
    return system


def _s5fs():
    system = System(SystemConfig.config_a().with_(geometry=SMALL))
    s5_mkfs(system.store)
    S5FileSystem(system)
    _churn(system)
    return system


def _faulty():
    system = System.booted(SystemConfig.config_a().with_(geometry=SMALL),
                           fault_plan=FaultPlan())
    _churn(system)
    return system


def _world():
    client, server, _ = build_world(
        server_config=SystemConfig.config_a().with_(geometry=SMALL),
        fault_plan=NetFaultPlan())
    _churn(client)
    return client, server


#: Every machine the coverage test walks, by name: a build function that
#: returns its machines, and each machine's sorted namespaces, pinned
#: because a namespace gained or lost moves every snapshot holding it.
_DISK = ["disk.driver", "disk.driver.queue_bytes", "disk.driver.queue_depth",
         "disk.driver.service", "disk.driver.wait", "disk.mech"]
_BASE = ["cpu", "requests", "requests.inflight", "requests.latency"]
_VM = ["vm.freemem", "vm.pagecache"]
_UFS = ["ufs", "ufs.metacache", "ufs.throttle"]
_VOLUME = ["volume", "volume.queue_bytes", "volume.queue_depth",
           "volume.service", "volume.wait"]


def _members(n, wcache=False):
    return [f"disk.m{i}{suffix}" for i in range(n) for suffix in (
        ".driver", ".driver.queue_bytes", ".driver.queue_depth",
        ".driver.service", ".driver.wait", ".mech")
        + ((".wcache",) if wcache else ())]


MACHINES = {
    "A": (lambda: [_booted()],
          [sorted(_BASE + _DISK + _UFS + _VM)]),
    "mirror:2 wcache checksums scrub": (
        lambda: [_mirror_scrubbed()],
        [sorted(_BASE + _members(2, wcache=True) + ["scrub"] + _UFS + _VM
                + _VOLUME)]),
    "stripe:2": (lambda: [_booted(layout="stripe:2")],
                 [sorted(_BASE + _members(2) + _UFS + _VM + _VOLUME)]),
    "s5fs": (lambda: [_s5fs()],
             [sorted(_BASE + _DISK + ["s5fs", "s5fs.metacache"] + _VM)]),
    "fault plan": (lambda: [_faulty()],
                   [sorted(_BASE + _DISK + _UFS + _VM)]),
    "nfs client, server": (_world, [sorted(_BASE + _DISK + _VM),
                                    sorted(_BASE + _DISK + _UFS + _VM)]),
}


@pytest.fixture(scope="module")
def machines():
    return {name: build() for name, (build, _) in MACHINES.items()}


@pytest.mark.parametrize("name", list(MACHINES))
def test_each_machine_keeps_its_namespaces(machines, name):
    assert [m.metrics.namespaces() for m in machines[name]] \
        == MACHINES[name][1]


@pytest.mark.parametrize("name", list(MACHINES))
def test_every_instrument_is_registered_or_named_dark(machines, name):
    systems = machines[name]
    unknown = {holders for holders in _dark(
        systems, [m.metrics for m in systems]) if not holders & set(DARK)}
    assert unknown == set()


def test_every_dark_entry_is_still_dark(machines):
    """A table entry nobody holds any more (lit, renamed, gone) fails."""
    seen = set()
    for systems in machines.values():
        for holders in _dark(systems, [m.metrics for m in systems]):
            seen |= holders & set(DARK)
    assert seen == set(DARK)


def test_the_walk_sees_each_shape():
    engine = Engine()
    registry = MetricsRegistry(engine)

    class Layer:
        __module__ = "repro.fake"

    layer = Layer()
    layer.counts = registry.counters("fake")
    layer.gauge = TimeWeighted(engine, 0)
    layer.table = {"k": [Histogram("h")]}
    layer.more = StatSet("x")
    assert _dark([layer], [registry]) == {
        frozenset({"fake.py:Layer.gauge"}),
        frozenset({"fake.py:Layer.table"}),
        frozenset({"fake.py:Layer.more"})}


def test_a_one_off_scrubber_shows_in_its_machine():
    from repro.integrity.scrub import Scrubber

    system = _booted(checksums=True)
    scrubber = Scrubber(system)
    system.run(scrubber.scrub_now())
    assert system.metrics.get("scrub") is scrubber.stats
    assert scrubber.stats["passes"] == 1
    assert Scrubber(system).stats is scrubber.stats  # a second continues
