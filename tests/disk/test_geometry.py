"""Tests for disk geometry: addressing, zones, angles, seeks."""

import pytest

from repro.disk import DiskGeometry, Zone
from repro.units import MB


@pytest.fixture
def geom():
    return DiskGeometry.uniform(cylinders=10, heads=2, sectors_per_track=8)


def test_total_sectors_and_capacity(geom):
    assert geom.total_sectors == 10 * 2 * 8
    assert geom.capacity_bytes == 160 * 512


def test_chs_round_trip(geom):
    # Every (cylinder, head, index) names exactly one sector, in order.
    assert [geom.to_chs(sector) for sector in range(geom.total_sectors)] == [
        (cyl, head, idx) for cyl in range(10) for head in range(2)
        for idx in range(8)]


def test_chs_layout_order(geom):
    # Sectors fill a track, then the next head, then the next cylinder.
    assert geom.to_chs(0) == (0, 0, 0)
    assert geom.to_chs(7) == (0, 0, 7)
    assert geom.to_chs(8) == (0, 1, 0)
    assert geom.to_chs(16) == (1, 0, 0)


def test_sector_out_of_range(geom):
    with pytest.raises(ValueError):
        geom.to_chs(geom.total_sectors)
    with pytest.raises(ValueError):
        geom.to_chs(-1)


def test_rotation_and_media_rate():
    geom = DiskGeometry.ibm_400mb()
    assert geom.rotation_time == pytest.approx(1 / 60)
    # 56 sectors * 512 B per 16.67 ms = 1.72e6 B/s
    assert geom.media_rate(0) == pytest.approx(1_720_320)
    assert geom.capacity_bytes == pytest.approx(394 * MB, rel=0.01)


def test_zoned_geometry_addressing():
    geom = DiskGeometry(
        heads=2,
        zones=(Zone(0, 1, 8), Zone(2, 3, 4)),
    )
    assert geom.total_sectors == 2 * 2 * 8 + 2 * 2 * 4
    # First sector of the inner zone:
    assert geom.to_chs(32) == (2, 0, 0)
    assert geom.sectors_per_track_at(0) == 8
    assert geom.sectors_per_track_at(3) == 4
    assert geom.media_rate(0) == 2 * geom.media_rate(3)


def test_zones_must_tile():
    with pytest.raises(ValueError):
        DiskGeometry(heads=2, zones=(Zone(0, 1, 8), Zone(3, 4, 4)))


def test_rotational_wait_basics(geom):
    # No skew for cylinder 0, head 0: sector 0 starts at angle 0.
    rot = geom.rotation_time
    assert geom.rotational_wait(0.0, 0, 0, 0) == pytest.approx(0.0)
    # Half a revolution after t=0, sector 0 is half a revolution away.
    assert geom.rotational_wait(rot / 2, 0, 0, 0) == pytest.approx(rot / 2)
    # Sector 4 of 8 starts half a revolution in.
    assert geom.rotational_wait(0.0, 0, 0, 4) == pytest.approx(rot / 2)


def test_skew_offsets_next_track():
    geom = DiskGeometry.uniform(
        cylinders=4, heads=2, sectors_per_track=8, track_skew=2, cyl_skew=3
    )
    assert geom.skew_sectors(0, 0) == 0
    assert geom.skew_sectors(0, 1) == 2  # +track_skew
    assert geom.skew_sectors(1, 0) == 5  # +cyl_skew past the last head
    assert geom.skew_sectors(1, 1) == 7
    # Sector 0 on head 1 starts 2 sector-times later than on head 0.
    delta = geom.sector_angle(0, 1, 0) - geom.sector_angle(0, 0, 0)
    assert delta == pytest.approx(2 / 8)


def test_seek_time_monotone():
    geom = DiskGeometry.ibm_400mb()
    assert geom.seek_time(5, 5) == 0.0
    one = geom.seek_time(0, 1)
    mid = geom.seek_time(0, geom.cylinders // 3)
    full = geom.seek_time(0, geom.cylinders - 1)
    assert 0 < one < mid < full
    # Calibration: a third-stroke (average) seek in the 10-20 ms range of
    # late-80s drives.
    assert 0.010 < mid < 0.020


def test_validation_errors():
    with pytest.raises(ValueError):
        DiskGeometry.uniform(cylinders=1, heads=0, sectors_per_track=8)
    with pytest.raises(ValueError):
        Zone(0, -1, 8)
    with pytest.raises(ValueError):
        Zone(0, 1, 0)
    with pytest.raises(ValueError):
        DiskGeometry(heads=2, zones=())
