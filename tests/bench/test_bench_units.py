"""Unit tests for the benchmark package itself (harness correctness)."""

import pytest

from repro.bench import IObench, run_musbus
from repro.bench import agefs
from repro.bench.agefs import ExtentReport, age_filesystem, measure_extents
from repro.bench.iobench import PHASES
from repro.disk import DiskGeometry
from repro.kernel import Proc, System, SystemConfig
from repro.units import KB, MB


def small_config(name="A"):
    return SystemConfig.by_name(name).with_(
        geometry=DiskGeometry.uniform(cylinders=200, heads=4,
                                      sectors_per_track=32))


# -- iobench -------------------------------------------------------------------

def test_iobench_validates_sizes():
    for sizes in ({"file_size": 1000},  # not a whole number of 8 KB records
                  {"file_size": 0},  # randrange(0) died after three phases
                  {"file_size": -1 * MB},
                  {"file_size": 4 * KB},
                  {"random_ops": 0},  # a phase of no operations has no rate
                  {"random_ops": -5}):  # it printed FRR=-57554 KB/s
        with pytest.raises(ValueError):
            IObench(small_config(), **sizes)
    IObench(small_config(), file_size=8 * KB, random_ops=1)  # the smallest


def test_iobench_small_run_produces_all_phases():
    bench = IObench(small_config(), file_size=1 * MB, random_ops=16)
    result = bench.run()
    assert set(result.rates) == set(PHASES)
    assert all(v > 0 for v in result.rates.values())
    assert result["FSR"] == result.rates["FSR"]
    assert 0 < result.cpu_util["FSR"] <= 1.0


def test_iobench_deterministic():
    r1 = IObench(small_config(), file_size=1 * MB, random_ops=16).run()
    r2 = IObench(small_config(), file_size=1 * MB, random_ops=16).run()
    assert r1.rates == r2.rates


@pytest.mark.parametrize("name", ["A", "D"])
def test_iobench_pages_share_one_buffer(name):
    """IObench writes one zero record over and over: every page it leaves
    behind shares the zero block, and none holds a private copy."""
    bench = IObench(small_config(name), file_size=1 * MB, random_ops=16)
    bench.run()
    cache = bench.system.pagecache
    frames = [page for page in cache.frames if page is not None]
    assert cache.frames_backed == len(frames) > 0
    assert cache.private_buffers == 0
    assert len({id(page.data) for page in frames}) == 1


# -- agefs ------------------------------------------------------------------------

def test_extent_report_properties():
    report = ExtentReport(file_size=100, extents=[10, 20, 30])
    assert report.count == 3
    assert report.average == 20
    assert report.largest == 30
    empty = ExtentReport(file_size=0)
    assert empty.average == 0.0 and empty.largest == 0


def test_measure_extents_on_contiguous_file():
    system = System.booted(small_config())
    proc = Proc(system)

    def work():
        fd = yield from proc.creat("/f")
        yield from proc.write(fd, bytes(64 * KB))
        yield from proc.fsync(fd)

    system.run(work())
    report = measure_extents(system, "/f")
    assert report.file_size == 64 * KB
    assert report.count == 1
    assert report.largest == 64 * KB


def test_age_filesystem_reaches_target(monkeypatch):
    # At CHURN_FACTOR 2.0 this sanitized run takes about twice as long
    # (19 s against 9 s on a 2-core x86 host).
    monkeypatch.setattr(agefs, "CHURN_FACTOR", 1.2)
    system = System.booted(small_config())
    survivors = age_filesystem(system, target_utilization=0.5, seed=3,
                               mean_file_kb=16)
    assert survivors > 0
    sb = system.mount.sb
    free = sb.cs_nbfree * sb.frag + sb.cs_nffree
    usable = sb.total_frags * (100 - sb.minfree) // 100
    used_fraction = 1 - (free - (sb.total_frags - usable)) / usable
    assert used_fraction >= 0.45


def test_age_filesystem_validates():
    system = System.booted(small_config())
    with pytest.raises(ValueError):
        age_filesystem(system, target_utilization=1.5)


# -- musbus ------------------------------------------------------------------------

def test_musbus_small_run():
    result = run_musbus(small_config())
    assert result.elapsed > 0
    assert result.throughput > 0
    assert 0 < result.cpu_util < 1
