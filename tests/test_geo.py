from __future__ import annotations

import math
import random

import pytest

from conftest import scatter_points
from siotsim.geo import EARTH_RADIUS_M, CellIndex, GeoPoint, haversine_m, midpoint


def test_identical_points_have_zero_distance():
    p = GeoPoint(12.5, -33.25)
    assert haversine_m(p, p) == 0.0


def test_antipodal_on_equator_is_half_circumference():
    d = haversine_m(GeoPoint(0, 0), GeoPoint(0, 180))
    assert d == pytest.approx(math.pi * EARTH_RADIUS_M, rel=1e-12)
    assert d == pytest.approx(20015086.796020572, rel=1e-12)


def test_small_arc_on_equator():
    d = haversine_m(GeoPoint(0, 0), GeoPoint(0, 0.001))
    assert d == pytest.approx(EARTH_RADIUS_M * math.radians(0.001), rel=1e-9)
    assert d == pytest.approx(111.19492664455875, rel=1e-9)


def test_coordinates_validated():
    with pytest.raises(ValueError):
        GeoPoint(91.0, 0.0)
    with pytest.raises(ValueError):
        GeoPoint(0.0, 181.0)
    with pytest.raises(ValueError):
        GeoPoint(float("nan"), 0.0)


def test_symmetry_and_triangle_inequality_on_random_triples():
    rnd = random.Random(20319)
    for _ in range(300):
        pts = [GeoPoint(rnd.uniform(-89, 89), rnd.uniform(-179, 179))
               for _ in range(3)]
        a, b, c = pts
        assert haversine_m(a, b) == haversine_m(b, a)
        assert haversine_m(a, b) >= 0.0
        lhs = haversine_m(a, c)
        rhs = haversine_m(a, b) + haversine_m(b, c)
        assert lhs <= rhs * (1 + 1e-6) + 1e-6


def test_midpoint_is_arithmetic():
    m = midpoint(GeoPoint(10, 20), GeoPoint(12, 26))
    assert (m.lat, m.lon) == (11, 23)


@pytest.mark.parametrize("a, b, lon", [
    ((12, 179.9999), (12, -179.9999), 180.0),
    ((12, -179.9999), (12, 179.9999), 180.0),
    ((0, 179.0), (0, -177.0), -179.0),
    ((0, -170.0), (0, 172.0), -179.0),
    ((-5, 180.0), (-5, -180.0), 180.0),
])
def test_midpoint_takes_the_short_way_across_the_antimeridian(a, b, lon):
    m = midpoint(GeoPoint(*a), GeoPoint(*b))
    assert m.lat == pytest.approx((a[0] + b[0]) / 2.0)
    # +180 and -180 are one meridian
    assert abs((m.lon - lon + 180.0) % 360.0 - 180.0) < 1e-9
    assert -180.0 <= m.lon <= 180.0
    assert haversine_m(m, GeoPoint(*a)) == pytest.approx(haversine_m(m, GeoPoint(*b)),
                                                         rel=1e-6, abs=1e-6)


def test_midpoint_of_pairs_that_do_not_wrap_is_the_plain_average():
    rnd = random.Random(52)
    for _ in range(500):
        a = GeoPoint(rnd.uniform(-90, 90), rnd.uniform(-180, 180))
        b = GeoPoint(rnd.uniform(-90, 90), rnd.uniform(-180, 180))
        if abs(a.lon - b.lon) > 180.0:
            continue
        m = midpoint(a, b)
        assert (m.lat, m.lon) == ((a.lat + b.lat) / 2.0, (a.lon + b.lon) / 2.0)


@pytest.mark.parametrize("radius", [0.0, 1.0, 250.0, 5000.0, 800_000.0, 21_000_000.0])
def test_cell_index_near_holds_every_point_within_the_radius(radius):
    rnd = random.Random(f"cells/{radius}")
    grid = CellIndex(radius)
    points = scatter_points(rnd, 150, radius)
    for a in points:
        near = grid.near(a)
        assert len(near) == len(set(near))
        for b in points:
            if haversine_m(a, b) <= radius:
                assert grid.cell(b) in near, (a, b)


def test_cell_index_finds_pairs_at_the_widest_longitude_gap():
    # two points on one parallel, as far apart in longitude as the radius
    # allows: sin(d/2) = cos(lat) sin(dlon/2)
    rnd = random.Random(6302)
    for _ in range(3000):
        radius = rnd.choice((10.0, 250.0, 100_000.0, 800_000.0, 3_000_000.0))
        lat = rnd.uniform(-89.999, 89.999)
        s = math.sin(radius / EARTH_RADIUS_M / 2.0) / math.cos(math.radians(lat))
        if s >= 1.0:
            continue
        gap = math.degrees(2.0 * math.asin(s)) * rnd.uniform(0.999, 1.0)
        a = GeoPoint(lat, rnd.uniform(-180.0, 180.0))
        lon = a.lon + gap
        b = GeoPoint(lat, lon - 360.0 if lon > 180.0 else lon)
        if haversine_m(a, b) <= radius:
            grid = CellIndex(radius)
            assert grid.cell(b) in grid.near(a), (radius, a, b)
            assert grid.cell(a) in grid.near(b), (radius, a, b)
