import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tripmatch.geodesy import (
    distance_m,
    offset_point,
    point_to_linestring_m,
    resample_min_spacing,
    trace_length_m,
)
from tripmatch.types import GeoPoint

# frozen before the build with an independent vector-geodesic script
# (unit-sphere cross/dot, mpmath at 40 digits, R = 6,371,000 m)
ORACLE_LAT_CASE = 222.390     # (60.1719, 24.9414) -> (60.1699, 24.9414)
ORACLE_LNG_CASE = 1106.230    # (60.17, 24.94) -> (60.17, 24.96)
# 100 m due east of (60.17, 24.94) in the oracle projection
EAST_100M_LNG = 24.94 + 0.0018079423495300717

coords = st.tuples(st.floats(-85, 85), st.floats(-179, 179))


def test_identity_is_zero():
    p = GeoPoint(60.1719, 24.9414)
    assert distance_m(p, p) == 0.0


def test_latitude_step_matches_oracle():
    d = distance_m(GeoPoint(60.1719, 24.9414), GeoPoint(60.1699, 24.9414))
    assert d == pytest.approx(ORACLE_LAT_CASE, abs=1.0)


def test_longitude_step_matches_independent_oracle():
    d = distance_m(GeoPoint(60.17, 24.94), GeoPoint(60.17, 24.96))
    assert d == pytest.approx(ORACLE_LNG_CASE, rel=0.005)


def test_symmetry_and_positivity():
    a, b = GeoPoint(60.17, 24.94), GeoPoint(60.18, 24.95)
    assert distance_m(a, b) == pytest.approx(distance_m(b, a), abs=1e-9)
    assert distance_m(a, b) > 0


@settings(max_examples=300)
@given(coords, coords, coords)
def test_triangle_inequality(a, b, c):
    assert distance_m(a, c) <= distance_m(a, b) + distance_m(b, c) + 1e-6


def test_point_on_vertex_is_zero():
    line = [GeoPoint(60.17, 24.94), GeoPoint(60.18, 24.94)]
    assert point_to_linestring_m(line[0], line) == 0.0


def test_perpendicular_offset_is_100m():
    # meridian segment through (60.17, 24.94); p constructed 100 m east
    line = [GeoPoint(60.16, 24.94), GeoPoint(60.18, 24.94)]
    p = GeoPoint(60.17, EAST_100M_LNG)
    assert point_to_linestring_m(p, line) == pytest.approx(100.0, abs=1.0)


def test_single_point_linestring_degenerates_to_distance():
    p = GeoPoint(60.17, 24.94)
    q = GeoPoint(60.18, 24.95)
    assert point_to_linestring_m(p, [q]) == distance_m(p, q)


def test_empty_linestring_rejected():
    with pytest.raises(ValueError):
        point_to_linestring_m(GeoPoint(60.17, 24.94), [])


def test_beyond_endpoint_uses_endpoint_distance():
    line = [GeoPoint(60.17, 24.94), GeoPoint(60.171, 24.94)]
    p = GeoPoint(60.169, 24.94)  # south of the southern endpoint
    assert point_to_linestring_m(p, line) == pytest.approx(
        distance_m(p, line[0]), abs=0.01)


@settings(max_examples=200)
@given(st.floats(59.9, 60.4), st.floats(24.5, 25.4),
       st.lists(st.tuples(st.floats(-3000, 3000), st.floats(-3000, 3000)),
                min_size=1, max_size=8),
       st.tuples(st.floats(-4000, 4000), st.floats(-4000, 4000)))
# interior foot of the perpendicular 1 m from a vertex: the planar distance
# exceeds the spherical vertex distance by ~1e-6 m unless capped
@example(lat=60, lng=25, offs=[(0, 0), (0, 2)], p_off=(1851, 1))
def test_linestring_distance_bounded_by_vertex_distances(lat, lng, offs, p_off):
    origin = GeoPoint(lat, lng)
    line = [offset_point(origin, e, n) for e, n in offs]
    p = offset_point(origin, *p_off)
    d = point_to_linestring_m(p, line)
    assert d <= min(distance_m(p, v) for v in line) + 1e-6


def _chain(origin: GeoPoint, step_m: float, n: int) -> list[GeoPoint]:
    # north-going: great-circle distance along a meridian is exact, so the
    # spacing boundary (>= keeps the point) is hit without float slop
    return [offset_point(origin, 0.0, i * step_m) for i in range(n)]


def test_resample_every_other_at_half_spacing():
    # 50.001 m steps: each second point sits just past the 100 m threshold,
    # keeping the boundary test off the float knife edge
    pts = _chain(GeoPoint(60.17, 24.94), 50.001, 9)
    kept = resample_min_spacing(pts, 100.0)
    assert kept == pts[::2]


def test_resample_keeps_all_at_wider_spacing():
    pts = _chain(GeoPoint(60.17, 24.94), 150.0, 6)
    assert resample_min_spacing(pts, 100.0) == pts


def test_resample_single_point():
    pts = [GeoPoint(60.17, 24.94)]
    assert resample_min_spacing(pts, 100.0) == pts


def test_resample_rejects_nonpositive_spacing():
    with pytest.raises(ValueError):
        resample_min_spacing([GeoPoint(60.17, 24.94)], 0.0)


@settings(max_examples=200)
@given(st.lists(st.tuples(st.floats(-2000, 2000), st.floats(-2000, 2000)),
                min_size=1, max_size=30),
       st.floats(10.0, 500.0))
def test_resample_subsequence_and_min_spacing(offs, spacing):
    origin = GeoPoint(60.17, 24.94)
    pts = [offset_point(origin, e, n) for e, n in offs]
    kept = resample_min_spacing(pts, spacing)
    it = iter(pts)
    assert all(p in it for p in kept)  # subsequence of the input
    for a, b in zip(kept, kept[1:]):
        assert distance_m(a, b) >= spacing - 1e-9


def test_trace_length_sums_segments():
    pts = _chain(GeoPoint(60.17, 24.94), 100.0, 4)
    assert trace_length_m(pts) == pytest.approx(300.0, rel=1e-3)
