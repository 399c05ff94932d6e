"""The geometry's derived quantities are computed once, at construction.

Every disk request asks for ``rotation_time``, ``total_sectors`` and the
sectors per track of a cylinder, so ``DiskGeometry`` stores them instead of
re-deriving them per call.  The formulas they replaced are kept here as the
reference, and the stored values must equal them exactly (``==`` on
floats: a simulated number that moved in the last bit would change every
digest) on every cylinder and at every zone and cylinder boundary.
"""

import dataclasses

import pytest

from repro.disk import DiskGeometry


# -- the reference: the property formulas, derived per call --------------------

def ref_cylinders(g):
    return g.zones[-1].last_cyl + 1


def ref_rotation_time(g):
    return 60.0 / g.rpm


def ref_total_sectors(g):
    return g._zone_first_sector[-1] + (
        g.zones[-1].cylinders * g.heads * g.zones[-1].sectors_per_track
    )


def ref_sectors_per_track_at(g, cyl):
    return next(zone.sectors_per_track for zone in g.zones
                if zone.first_cyl <= cyl <= zone.last_cyl)


def ref_to_chs(g, sector):
    if not 0 <= sector < ref_total_sectors(g):
        raise ValueError(f"sector {sector} out of range")
    for zone, first in zip(g.zones, g._zone_first_sector):
        zone_sectors = zone.cylinders * g.heads * zone.sectors_per_track
        if sector < first + zone_sectors:
            rel = sector - first
            spt = zone.sectors_per_track
            cyl_size = g.heads * spt
            return (zone.first_cyl + rel // cyl_size,
                    (rel % cyl_size) // spt, rel % spt)
    raise AssertionError("unreachable")


GEOMETRIES = {"ibm_400mb": DiskGeometry.ibm_400mb,
              "zoned_520mb": DiskGeometry.zoned_520mb}


@pytest.fixture(params=sorted(GEOMETRIES))
def geom(request):
    return GEOMETRIES[request.param]()


def test_stored_quantities_equal_the_formulas(geom):
    assert geom.cylinders == ref_cylinders(geom)
    assert geom.rotation_time == ref_rotation_time(geom)
    assert geom.total_sectors == ref_total_sectors(geom)


def test_every_cylinder(geom):
    rotation = ref_rotation_time(geom)
    for cyl in range(ref_cylinders(geom)):
        spt = ref_sectors_per_track_at(geom, cyl)
        assert geom.sectors_per_track_at(cyl) == spt
        assert geom.sector_time(cyl) == rotation / spt
        assert geom.media_rate(cyl) == spt * geom.sector_size / rotation
        for head in (0, geom.heads - 1):
            assert geom.rotational_wait(0.0123, cyl, head, spt - 1) == (
                ((spt - 1 + geom.skew_sectors(cyl, head)) % spt / spt
                 - (0.0123 / rotation) % 1.0) % 1.0 * rotation)


def test_zone_and_cylinder_boundary_sectors(geom):
    boundaries = {0, ref_total_sectors(geom) - 1}
    for zone, first in zip(geom.zones, geom._zone_first_sector):
        per_cyl = geom.heads * zone.sectors_per_track
        for cyl in range(zone.cylinders):
            start = first + cyl * per_cyl
            boundaries.update((start - 1, start, start + per_cyl - 1))
    boundaries.discard(-1)
    for sector in sorted(boundaries):
        assert geom.to_chs(sector) == ref_to_chs(geom, sector)


def test_range_errors_are_kept(geom):
    for bad in (-1, ref_cylinders(geom)):
        with pytest.raises(ValueError, match="out of range"):
            geom.sectors_per_track_at(bad)
        with pytest.raises(ValueError, match="out of range"):
            geom.sector_time(bad)
    for bad in (-1, ref_total_sectors(geom)):
        with pytest.raises(ValueError, match="out of range"):
            geom.to_chs(bad)


def test_rotation_time_over_many_spindle_speeds():
    # 60 / rpm and 1 / (rpm / 60) agree for the drives above (3600 rpm)
    # but not for every speed; the stored value must be the former.
    base = DiskGeometry.uniform(cylinders=4, heads=2, sectors_per_track=8)
    for rpm in range(3000, 4001):
        assert dataclasses.replace(base, rpm=float(rpm)).rotation_time == (
            60.0 / rpm)


def test_derived_fields_stay_out_of_equality_and_repr():
    a, b = DiskGeometry.ibm_400mb(), DiskGeometry.ibm_400mb()
    assert a == b and hash(a) == hash(b)
    assert "rotation_time" not in repr(a) and "_spt_of_cyl" not in repr(a)
    assert dataclasses.replace(a, rpm=5400.0).rotation_time == 60.0 / 5400.0
