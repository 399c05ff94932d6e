"""MetricsRegistry: registration rules, rendering, and system wiring."""

import pytest

from repro.kernel import Proc, System, SystemConfig
from repro.obs.metrics import MetricsRegistry
from repro.sim import Engine, StatSet


@pytest.fixture
def registry():
    return MetricsRegistry(Engine())


def test_register_rejects_empty_namespace(registry):
    with pytest.raises(ValueError):
        registry.register("", StatSet("x"))


def test_register_rejects_duplicates_unless_replace(registry):
    first = registry.register("disk", StatSet("disk"))
    with pytest.raises(ValueError):
        registry.register("disk", StatSet("disk2"))
    second = registry.register("disk", StatSet("disk2"), replace=True)
    assert registry.get("disk") is second is not first


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
