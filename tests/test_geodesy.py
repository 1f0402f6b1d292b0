import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tripmatch.geodesy import (
    distance_m,
    distances_m,
    offset_point,
    point_to_linestring_m,
    points_to_polylines_m,
    ranges,
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


def polylines_m(groups):
    """points_to_polylines_m over (point, polyline) groups, each point
    paired with every vertex of its polyline."""
    p_lat, p_lng, v_lat, v_lng, starts = [], [], [], [], []
    for p, line in groups:
        starts.append(len(v_lat))
        p_lat += [p[0]] * len(line)
        p_lng += [p[1]] * len(line)
        v_lat += [v[0] for v in line]
        v_lng += [v[1] for v in line]
    p_lat, p_lng, v_lat, v_lng = map(np.array, (p_lat, p_lng, v_lat, v_lng))
    return points_to_polylines_m(p_lat, p_lng, v_lat, v_lng,
                                 distances_m(p_lat, p_lng, v_lat, v_lng),
                                 np.array(starts, dtype=np.intp)).tolist()


def kernel_linestring_m(p, line):
    """point_to_linestring_m through the array kernel, as one group."""
    [d] = polylines_m([(p, line)])
    return d


# the scalar reference and the array kernel answer every property alike
LINESTRING_FORMS = (point_to_linestring_m, kernel_linestring_m)


def test_point_on_vertex_is_zero():
    line = [GeoPoint(60.17, 24.94), GeoPoint(60.18, 24.94)]
    for to_line in LINESTRING_FORMS:
        assert to_line(line[0], line) == 0.0


def test_perpendicular_offset_is_100m():
    # meridian segment through (60.17, 24.94); p constructed 100 m east
    line = [GeoPoint(60.16, 24.94), GeoPoint(60.18, 24.94)]
    p = GeoPoint(60.17, EAST_100M_LNG)
    for to_line in LINESTRING_FORMS:
        assert to_line(p, line) == pytest.approx(100.0, abs=1.0)


def test_single_point_linestring_degenerates_to_distance():
    p = GeoPoint(60.17, 24.94)
    q = GeoPoint(60.18, 24.95)
    assert point_to_linestring_m(p, [q]) == distance_m(p, q)
    assert kernel_linestring_m(p, [q]) == distances_m(p.lat, p.lng, q.lat, q.lng)


def test_empty_linestring_rejected():
    with pytest.raises(ValueError):
        point_to_linestring_m(GeoPoint(60.17, 24.94), [])


def test_beyond_endpoint_uses_endpoint_distance():
    line = [GeoPoint(60.17, 24.94), GeoPoint(60.171, 24.94)]
    p = GeoPoint(60.169, 24.94)  # south of the southern endpoint
    for to_line in LINESTRING_FORMS:
        assert to_line(p, line) == pytest.approx(distance_m(p, line[0]),
                                                 abs=0.01)


@settings(max_examples=200)
@given(st.floats(59.9, 60.4), st.floats(24.5, 25.4),
       st.lists(st.tuples(st.floats(-3000, 3000), st.floats(-3000, 3000)),
                min_size=1, max_size=8),
       st.tuples(st.floats(-4000, 4000), st.floats(-4000, 4000)))
# interior foot of the perpendicular 1 m from a vertex: the planar distance
# exceeds the spherical vertex distance by ~1e-6 m unless capped
@example(lat=60, lng=25, offs=[(0, 0), (0, 2)], p_off=(1851, 1))
# p beyond a 0.25 m segment's end, the plane and the sphere disagreeing by
# ~1e-6 m on which end is nearer
@example(lat=60, lng=25, offs=[(0, 0), (0, 0.25)], p_off=(974, 0))
def test_linestring_distance_bounded_by_vertex_distances(lat, lng, offs, p_off):
    origin = GeoPoint(lat, lng)
    line = [offset_point(origin, e, n) for e, n in offs]
    p = offset_point(origin, *p_off)
    for to_line in LINESTRING_FORMS:
        assert to_line(p, line) <= min(distance_m(p, v) for v in line) + 1e-6


# vertex offsets from a small grid, so that polylines repeat vertices
grid_offsets = st.tuples(st.sampled_from([-1500.0, -40.0, 0.0, 40.0, 1500.0]),
                         st.sampled_from([-1500.0, -40.0, 0.0, 40.0, 1500.0]))
any_offsets = st.tuples(st.floats(-3000, 3000), st.floats(-3000, 3000))


@st.composite
def point_and_polyline(draw):
    """A polyline of one or more vertices, some repeated, and a point near
    it, anywhere or past either end of the polyline."""
    offs = draw(st.lists(grid_offsets | any_offsets, min_size=1, max_size=6))
    where = draw(st.sampled_from(["anywhere", "past first", "past last"]))
    if where == "anywhere" or len(offs) == 1 or offs[0] == offs[1] \
            or offs[-1] == offs[-2]:
        p_off = draw(st.tuples(st.floats(-4000, 4000), st.floats(-4000, 4000)))
    else:
        # on the line through the end segment, beyond its end vertex
        (e0, n0), (e1, n1) = offs[:2] if where == "past first" else offs[:-3:-1]
        k = draw(st.floats(0.01, 2.0))
        p_off = (e0 + k * (e0 - e1), n0 + k * (n0 - n1))
    return p_off, offs


@settings(max_examples=200)
@given(st.floats(-60, 60), st.floats(-179, 179),
       st.lists(point_and_polyline(), min_size=1, max_size=8))
def test_kernel_equals_scalar_reference(lat, lng, groups):
    origin = GeoPoint(lat, lng)
    geo = [(offset_point(origin, *p_off), [offset_point(origin, *o) for o in offs])
           for p_off, offs in groups]
    for d, (p, line) in zip(polylines_m(geo), geo):
        assert d == pytest.approx(point_to_linestring_m(p, line), abs=1e-9)


def _chain(origin: GeoPoint, step_m: float, n: int) -> list[GeoPoint]:
    # north-going: great-circle distance along a meridian is exact, so the
    # spacing boundary (>= keeps the point) is hit without float slop
    return [offset_point(origin, 0.0, i * step_m) for i in range(n)]


def resample(points, spacing_m):
    """resample_min_spacing of a list of points, as a list of points."""
    lats, lngs = np.array(points, dtype=np.float64).reshape(-1, 2).T
    kept = resample_min_spacing(lats, lngs, spacing_m)
    return [GeoPoint(lat, lng) for lat, lng in zip(*(c.tolist() for c in kept))]


def test_resample_every_other_at_half_spacing():
    # 50.001 m steps: each second point sits just past the 100 m threshold,
    # keeping the boundary test off the float knife edge
    pts = _chain(GeoPoint(60.17, 24.94), 50.001, 9)
    kept = resample(pts, 100.0)
    assert kept == pts[::2]


def test_resample_keeps_all_at_wider_spacing():
    pts = _chain(GeoPoint(60.17, 24.94), 150.0, 6)
    assert resample(pts, 100.0) == pts


def test_resample_keeps_a_point_exactly_at_the_spacing():
    a, b = GeoPoint(60.17, 24.94), GeoPoint(60.171, 24.9413)
    assert resample([a, b], distance_m(a, b)) == [a, b]


def test_resample_single_point():
    pts = [GeoPoint(60.17, 24.94)]
    assert resample(pts, 100.0) == pts


def test_resample_rejects_nonpositive_spacing():
    with pytest.raises(ValueError):
        resample([GeoPoint(60.17, 24.94)], 0.0)


@settings(max_examples=200)
@given(st.lists(st.tuples(st.floats(-2000, 2000), st.floats(-2000, 2000)),
                min_size=1, max_size=30),
       st.floats(10.0, 500.0))
def test_resample_subsequence_and_min_spacing(offs, spacing):
    origin = GeoPoint(60.17, 24.94)
    pts = [offset_point(origin, e, n) for e, n in offs]
    kept = resample(pts, spacing)
    it = iter(pts)
    assert all(p in it for p in kept)  # subsequence of the input
    for a, b in zip(kept, kept[1:]):
        assert distance_m(a, b) >= spacing - 1e-9
    # the greedy rule: a point is kept iff it is far enough from the last kept
    greedy = [pts[0]]
    for p in pts[1:]:
        if distance_m(greedy[-1], p) >= spacing:
            greedy.append(p)
    assert kept == greedy


@settings(max_examples=300)
@given(st.lists(coords, min_size=1, max_size=40),
       st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=8),
       st.one_of(st.floats(1e-3, 2e7), st.integers(0, 39)))
def test_resample_keeps_the_points_of_the_distance_m_loop(points, repeats,
                                                          spacing):
    """Anywhere on the globe, with repeated points and with a spacing that
    is the exact distance between two of the points, the kept points are
    those of the loop of distance_m calls to the last kept point, to the
    bit."""
    points = list(points)
    for i, j in repeats:
        if i < len(points) and j < len(points):
            points[j] = points[i]
    if isinstance(spacing, int):
        spacing = distance_m(points[0], points[spacing % len(points)]) or 1.0
    kept, last = [], None
    for i, point in enumerate(points):
        if last is None or distance_m(last, point) >= spacing:
            kept.append(i)
            last = point
    lats, lngs = np.array(points).T
    got = resample_min_spacing(lats, lngs, spacing)
    assert got[0].tolist() == lats[kept].tolist()
    assert got[1].tolist() == lngs[kept].tolist()


def test_trace_length_sums_segments():
    pts = _chain(GeoPoint(60.17, 24.94), 100.0, 4)
    assert trace_length_m(pts) == pytest.approx(300.0, rel=1e-3)


@given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 5)), max_size=8))
def test_ranges_concatenate_each_range_and_start_it_at_its_offset(spans):
    """ranges(first, lengths) is first[k]:first[k] + lengths[k] for every
    k in turn, empty ranges included, and starts[k] is where range k
    begins in it."""
    first = np.array([f for f, _ in spans], dtype=np.int64)
    lengths = np.array([n for _, n in spans], dtype=np.int64)
    rows, starts = ranges(first, lengths)
    assert rows.tolist() == [i for f, n in spans for i in range(f, f + n)]
    assert starts.tolist() == [sum(n for _, n in spans[:k]) for k in range(len(spans))]
