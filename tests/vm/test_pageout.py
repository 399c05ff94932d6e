"""Tests for the two-handed-clock pageout daemon."""

import pytest

from repro.cpu import CostTable, Cpu
from repro.obs.metrics import MetricsRegistry
from repro.sim.request import RequestRegistry
from repro.units import KB
from repro.vm import PageCache, PageoutDaemon, PageoutParams


def make_vm(engine, pages=32, lotsfree=8, handspread=16, free_cpu=True):
    from .conftest import FakeVnode

    metrics = MetricsRegistry(engine)
    cache = PageCache(engine, metrics, memory_bytes=pages * 8 * KB,
                      page_size=8 * KB)
    costs = CostTable.free() if free_cpu else CostTable()
    cpu = Cpu(engine, metrics, costs)
    params = PageoutParams(lotsfree=lotsfree, handspread=handspread,
                           scan_batch=16, breath=0.001)
    daemon = PageoutDaemon(engine, cache, cpu, params,
                           RequestRegistry(engine, metrics))
    # The vnode must share the daemon's cache, or its putpage frees nothing.
    vnode = FakeVnode(cache)
    return cache, cpu, daemon, vnode


def consume(cache, vnode, count, start=0):
    pages = []
    for i in range(count):
        page = cache.allocate(vnode, (start + i) * 8192)
        assert page is not None, f"allocation {i} failed"
        page.valid = True
        page.unlock()
        pages.append(page)
    return pages


def test_daemon_idle_above_lotsfree(engine):
    cache, cpu, daemon, vnode = make_vm(engine)
    consume(cache, vnode, 4)
    engine.run(until=1.0)
    assert daemon.stats["wakeups"] == 0
    assert cache.freemem == 28


def test_daemon_frees_unreferenced_pages(engine):
    cache, cpu, daemon, vnode = make_vm(engine)
    pages = consume(cache, vnode, 30)  # freemem = 2 < lotsfree = 8
    for p in pages:
        p.referenced = False
    engine.run(until=1.0)
    assert daemon.stats["wakeups"] >= 1
    assert daemon.stats["freed"] > 0
    assert cache.freemem >= 8


def test_daemon_skips_referenced_until_second_pass(engine):
    cache, cpu, daemon, vnode = make_vm(engine, pages=32, lotsfree=8, handspread=16)
    pages = consume(cache, vnode, 30)
    for p in pages:
        p.referenced = True
    engine.run(until=2.0)
    # The clock eventually clears reference bits and frees anyway.
    assert cache.freemem >= 8
    # But referenced pages needed a clearing pass first: the daemon examined
    # many more pages than it freed.
    assert daemon.stats["examined"] > daemon.stats["freed"] * 2


def test_daemon_pushes_dirty_pages_via_putpage(engine):
    cache, cpu, daemon, vnode = make_vm(engine)
    pages = consume(cache, vnode, 30)
    for p in pages:
        p.dirty = True  # all dirty: freeing requires pushing writebacks
        p.referenced = False
    engine.run(until=2.0)
    assert daemon.stats["pushed_dirty"] > 0
    assert any(f.async_ and f.free for _, _, f in vnode.putpage_calls)
    assert cache.freemem >= 8


def test_daemon_never_touches_locked_pages(engine):
    cache, cpu, daemon, vnode = make_vm(engine, pages=16, lotsfree=8, handspread=8)
    pages = consume(cache, vnode, 14)
    for p in pages:
        p.lock()
    engine.run(until=0.5)
    # Nothing freeable: all locked. The daemon must stall, not crash or free.
    assert daemon.stats["freed"] == 0
    assert daemon.stats["stalls"] > 0
    for p in pages:
        assert not p.free


def test_daemon_charges_cpu(engine):
    cache, cpu, daemon, vnode = make_vm(engine, free_cpu=False)
    pages = consume(cache, vnode, 30)
    for p in pages:
        p.referenced = False
    engine.run(until=1.0)
    assert cpu.ledger["pagedaemon"] > 0


def test_handspread_validation(engine):
    from repro.sim import Engine

    eng = Engine()
    metrics = MetricsRegistry(eng)
    cache = PageCache(eng, metrics, memory_bytes=16 * 8 * KB,
                      page_size=8 * KB)
    cpu = Cpu(eng, metrics, CostTable.free())
    with pytest.raises(ValueError):
        PageoutDaemon(eng, cache, cpu, PageoutParams(lotsfree=4, handspread=16),
                      RequestRegistry(eng, metrics))


def test_for_memory_defaults():
    params = PageoutParams.for_memory(1024)
    assert params.lotsfree == 64
    assert params.handspread == 256
