"""Tests for free-behind, the write throttle, tuning, and the bmap cache."""

import pytest

from repro.core import BmapCache, ClusterTuning, FreeBehindPolicy, WriteThrottle
from repro.sim import Engine, StatSet
from repro.units import KB


# -- free-behind ------------------------------------------------------------

def test_free_behind_requires_all_conditions():
    policy = FreeBehindPolicy(min_offset=256 * KB, headroom=2.0)
    # sequential, deep into the file, memory low: free it.
    assert policy.should_free(True, 512 * KB, freemem=10, lotsfree=8)
    # not sequential
    assert not policy.should_free(False, 512 * KB, 10, 8)
    # too early in the file
    assert not policy.should_free(True, 128 * KB, 10, 8)
    # plenty of memory
    assert not policy.should_free(True, 512 * KB, 100, 8)


# -- write throttle -----------------------------------------------------------

def charge(throttle, nbytes):
    """The paper's decrement-then-maybe-sleep, as the write path does it."""
    throttle.take(nbytes)
    yield from throttle.wait_ok()


def test_throttle_charges_and_blocks():
    eng = Engine()
    throttle = WriteThrottle(eng, limit=16 * KB, stats=StatSet())
    log = []

    def writer():
        yield from charge(throttle, 8 * KB)
        log.append(("first", eng.now))
        yield from charge(throttle, 8 * KB)
        log.append(("second", eng.now))
        yield from charge(throttle, 8 * KB)  # exceeds the limit: sleeps
        log.append(("third", eng.now))

    def completer():
        yield eng.timeout(5)
        throttle.credit(8 * KB)

    eng.process(writer())
    eng.process(completer())
    eng.run()
    assert log == [("first", 0), ("second", 0), ("third", 5)]
    assert throttle.sleeps == 1


def test_throttle_single_large_write_overshoots_then_blocks():
    """A write bigger than the limit proceeds; the writer sleeps after."""
    eng = Engine()
    throttle = WriteThrottle(eng, limit=8 * KB, stats=StatSet())
    reached = []

    def writer():
        yield from charge(throttle, 32 * KB)
        reached.append(eng.now)

    def completer():
        yield eng.timeout(1)
        throttle.credit(32 * KB)

    eng.process(writer())
    eng.process(completer())
    eng.run()
    assert reached == [1]
    assert throttle.value == throttle.limit


def test_throttle_disabled_is_free():
    eng = Engine()
    throttle = WriteThrottle(eng, limit=0, stats=StatSet())

    def writer():
        yield from charge(throttle, 10**9)
        return eng.now

    assert eng.run_process(writer()) == 0
    assert throttle.in_flight == 0
    throttle.credit(10**9)  # no-op


def test_throttle_drain_waits_for_all_in_flight():
    eng = Engine()
    throttle = WriteThrottle(eng, limit=16 * KB, stats=StatSet())
    done = []

    def barrier():
        throttle.take(8 * KB)
        throttle.take(8 * KB)
        yield from throttle.drain()
        done.append(eng.now)

    def completer():
        yield eng.timeout(3)
        throttle.credit(8 * KB)  # one back: drain must keep waiting
        yield eng.timeout(3)
        throttle.credit(8 * KB)

    eng.process(barrier())
    eng.process(completer())
    eng.run()
    assert done == [6]
    assert throttle.in_flight == 0


def test_throttle_drain_returns_immediately_when_idle():
    eng = Engine()
    throttle = WriteThrottle(eng, limit=16 * KB, stats=StatSet())

    def barrier():
        yield from throttle.drain()
        return eng.now

    assert eng.run_process(barrier()) == 0

    # Disabled throttles never hold anything to drain.
    free = WriteThrottle(eng, limit=0, stats=StatSet())

    def barrier_free():
        yield from free.drain()
        return eng.now

    assert eng.run_process(barrier_free()) == 0


def test_throttle_error_path_credit_unblocks_drain():
    """Failed write-behind must credit too, or drain would wedge forever —
    the release-on-error contract the NFS client's _push_one relies on."""
    eng = Engine()
    throttle = WriteThrottle(eng, limit=8 * KB, stats=StatSet())
    done = []

    def failing_write():
        throttle.take(8 * KB)
        yield eng.timeout(1)
        try:
            raise RuntimeError("wire trouble")
        except RuntimeError:
            pass  # the error is recorded elsewhere...
        finally:
            throttle.credit(8 * KB)  # ...but the slot always comes back

    def barrier():
        yield eng.timeout(0.5)
        yield from throttle.drain()
        done.append(eng.now)

    eng.process(failing_write())
    eng.process(barrier())
    eng.run()
    assert done == [1]
    assert throttle.in_flight == 0


def test_throttle_overcredit_detected():
    eng = Engine()
    throttle = WriteThrottle(eng, limit=8 * KB, stats=StatSet())
    with pytest.raises(RuntimeError):
        throttle.credit(1)


def test_throttle_validation():
    eng = Engine()
    with pytest.raises(ValueError):
        WriteThrottle(eng, limit=-1, stats=StatSet())
    throttle = WriteThrottle(eng, limit=KB, stats=StatSet())
    with pytest.raises(ValueError):
        throttle.take(-1)
    with pytest.raises(ValueError):
        throttle.credit(-1)


def test_throttle_in_flight_accounting():
    eng = Engine()
    throttle = WriteThrottle(eng, limit=240 * KB, stats=StatSet())

    def writer():
        yield from charge(throttle, 100 * KB)

    eng.run_process(writer())
    assert throttle.in_flight == 100 * KB
    throttle.credit(100 * KB)
    assert throttle.in_flight == 0


# -- tuning ---------------------------------------------------------------------

def test_tuning_presets_match_figure9_semantics():
    a = ClusterTuning.new_system()
    assert a.read_clustering and a.write_clustering
    assert a.freebehind and a.write_limit == 240 * KB

    d = ClusterTuning.old_system()
    assert not d.read_clustering and not d.write_clustering
    assert not d.freebehind and d.write_limit == 0

    b = ClusterTuning.old_system(freebehind=True, write_limit=240 * KB)
    assert b.freebehind and b.write_limit == 240 * KB


def test_tuning_with_modification():
    t = ClusterTuning.new_system().with_(bmap_cache=True)
    assert t.bmap_cache and t.read_clustering


def test_tuning_validation():
    with pytest.raises(ValueError):
        ClusterTuning(write_limit=-1)
    with pytest.raises(ValueError):
        ClusterTuning(freebehind_min_offset=-1)


# -- bmap cache ---------------------------------------------------------------------

def test_bmap_cache_extent_hit_by_offset():
    cache = BmapCache()
    cache.insert(first_lbn=10, phys=800, length_blocks=5)
    assert cache.lookup(10, frags_per_block=8) == (800, 5)
    assert cache.lookup(12, frags_per_block=8) == (816, 3)
    assert cache.lookup(14, frags_per_block=8) == (832, 1)
    assert cache.lookup(15, frags_per_block=8) is None
    assert cache.hits == 3 and cache.misses == 1


def test_bmap_cache_lru_eviction():
    cache = BmapCache()
    for i in range(BmapCache.CAPACITY):
        cache.insert(10 * i, 100 * (i + 1), 1)
    cache.lookup(0, 8)  # refresh entry 0
    cache.insert(1000, 300, 1)  # full: evicts entry 10, the least recent
    assert cache.lookup(10, 8) is None
    assert cache.lookup(0, 8) is not None
    assert cache.lookup(1000, 8) is not None


def test_bmap_cache_invalidate():
    cache = BmapCache()
    cache.insert(0, 100, 4)
    cache.invalidate()
    assert len(cache) == 0
    assert cache.lookup(0, 8) is None


def test_bmap_cache_validation():
    cache = BmapCache()
    with pytest.raises(ValueError):
        cache.insert(0, 100, 0)
