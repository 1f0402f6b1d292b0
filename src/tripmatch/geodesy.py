"""WGS84 geometric primitives used by the matchers.

Distances are haversine on a spherical earth (R = 6,371,000 m), accurate to
well under 0.5% at city scale, which is negligible against the 100 m matching
thresholds. Segment-interior distances use an equirectangular projection about
the query point; projection error at sub-kilometre scale is below 0.1 m.

The matchers use the array kernels: ``distances_m``, and
``points_to_polylines_m``, the one point-to-polyline kernel of live and
static matching. They evaluate the same formulas in the same order as the
scalar ``distance_m``, ``point_to_segment_m`` and ``point_to_linestring_m``,
which stay as the references the tests compare them with.
"""
from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

from .types import GeoPoint, check_number

EARTH_RADIUS_M = 6_371_000.0

LatLng = tuple[float, float]


def distance_m(a: LatLng, b: LatLng) -> float:
    """Great-circle distance in metres between two (lat, lng) points."""
    lat1, lng1 = math.radians(a[0]), math.radians(a[1])
    lat2, lng2 = math.radians(b[0]), math.radians(b[1])
    dlat = lat2 - lat1
    dlng = lng2 - lng1
    h = math.sin(dlat / 2) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlng / 2) ** 2
    return 2 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(h)))


def _local_xy(origin: LatLng, p: LatLng) -> tuple[float, float]:
    """Equirectangular projection of p into metres about origin."""
    x = math.radians(p[1] - origin[1]) * math.cos(math.radians(origin[0])) * EARTH_RADIUS_M
    y = math.radians(p[0] - origin[0]) * EARTH_RADIUS_M
    return x, y


def distances_m(lat1: np.ndarray, lng1: np.ndarray, lat2: np.ndarray,
                lng2: np.ndarray) -> np.ndarray:
    """Element-wise distance_m between (lat1, lng1) and (lat2, lng2)."""
    lat1, lng1 = np.radians(lat1), np.radians(lng1)
    lat2, lng2 = np.radians(lat2), np.radians(lng2)
    dlat = lat2 - lat1
    dlng = lng2 - lng1
    h = np.sin(dlat / 2) ** 2 + np.cos(lat1) * np.cos(lat2) * np.sin(dlng / 2) ** 2
    return 2 * EARTH_RADIUS_M * np.arcsin(np.minimum(1.0, np.sqrt(h)))


def point_to_segment_m(p: LatLng, a: LatLng, b: LatLng) -> float:
    """Distance from p to the segment a-b, never more than the spherical
    distance to either endpoint.

    The nearest interior point is found in a local planar frame about p;
    endpoint distances use the spherical formula. Near an endpoint the two
    frames disagree by up to ~1e-6 m, so the planar result is capped by the
    endpoint distances, and where p projects beyond an end the nearer end
    by the spherical formula is taken, whichever end the plane names.
    """
    ax, ay = _local_xy(p, a)
    bx, by = _local_xy(p, b)
    dx, dy = bx - ax, by - ay
    seg_len2 = dx * dx + dy * dy
    if seg_len2 == 0.0:
        return distance_m(p, a)
    # p is the local origin, so the projection parameter is -a.(b-a)/|b-a|^2
    t = -(ax * dx + ay * dy) / seg_len2
    ends = min(distance_m(p, a), distance_m(p, b))
    if not 0.0 < t < 1.0:
        return ends
    return min(math.hypot(ax + t * dx, ay + t * dy), ends)


def points_to_polylines_m(p_lat: np.ndarray, p_lng: np.ndarray,
                          v_lat: np.ndarray, v_lng: np.ndarray,
                          d_vertex: np.ndarray, starts: np.ndarray,
                          ) -> np.ndarray:
    """Element-wise point_to_linestring_m over (point, vertex) pairs grouped
    consecutively: group k is pairs starts[k]:starts[k + 1], one point with
    the vertices of its polyline in order, and d_vertex = distances_m(p, v)
    of each pair. Returns each group's minimum distance; a one-vertex group
    is plain point distance, and each segment is measured as in
    point_to_segment_m."""
    if not len(starts):
        return np.empty(0)
    first = np.zeros(len(d_vertex) + 1, dtype=bool)
    first[starts] = True
    first[-1] = True
    d_pair = np.where(first[:-1] & first[1:], d_vertex, np.inf)
    # a polyline's segments start at each of its vertices but the last
    a = np.flatnonzero(~first[1:-1])
    b = a + 1
    p_lat, p_lng, da, db = p_lat[a], p_lng[a], d_vertex[a], d_vertex[b]
    cos_p = np.cos(np.radians(p_lat))
    ax = np.radians(v_lng[a] - p_lng) * cos_p * EARTH_RADIUS_M
    ay = np.radians(v_lat[a] - p_lat) * EARTH_RADIUS_M
    bx = np.radians(v_lng[b] - p_lng) * cos_p * EARTH_RADIUS_M
    by = np.radians(v_lat[b] - p_lat) * EARTH_RADIUS_M
    dx, dy = bx - ax, by - ay
    seg_len2 = dx * dx + dy * dy
    with np.errstate(divide="ignore", invalid="ignore"):
        t = -(ax * dx + ay * dy) / seg_len2
    ends = np.minimum(da, db)
    # t is not finite for a zero-length segment, whose ends coincide
    d_pair[a] = np.where((t > 0.0) & (t < 1.0),
                         np.minimum(np.hypot(ax + t * dx, ay + t * dy), ends), ends)
    return np.minimum.reduceat(d_pair, starts)


def ranges(first: np.ndarray,
           lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The concatenated index ranges first[k]:first[k] + lengths[k], such
    as the rows of the consecutive groups that points_to_polylines_m takes,
    and the offset of each range's start among them."""
    starts = np.cumsum(lengths) - lengths
    return np.arange(lengths.sum()) + np.repeat(first - starts, lengths), starts


def blocks(lengths: np.ndarray, limit: int) -> Iterator[slice]:
    """Consecutive groups of ranges, in order, whose lengths sum to at most
    limit, a longer range alone: the blocks in which a gather of ranges
    holds a bounded number of elements."""
    ends = np.cumsum(lengths)
    a = 0
    while a < len(lengths):
        b = max(a + 1, int(np.searchsorted(
            ends, ends[a] - lengths[a] + limit, "right")))
        yield slice(a, b)
        a = b


def point_to_linestring_m(p: LatLng, line: Sequence[LatLng]) -> float:
    """Minimum distance from p to a polyline; a single point degenerates to
    plain point distance."""
    if len(line) == 0:
        raise ValueError("linestring must contain at least one point")
    if len(line) == 1:
        return distance_m(p, line[0])
    best = math.inf
    prev = line[0]
    for cur in line[1:]:
        d = point_to_segment_m(p, prev, cur)
        if d < best:
            best = d
        prev = cur
    return best


def resample_min_spacing(lats: np.ndarray, lngs: np.ndarray,
                         spacing_m: float) -> tuple[np.ndarray, np.ndarray]:
    """Thin a trace so consecutive kept points are at least spacing_m apart.

    Keeps the first point, then each point whose distance_m to the last kept
    point is >= spacing_m. Returns the kept points' lats and lngs.
    """
    check_number("spacing_m", spacing_m, positive=True)
    if not len(lats):
        return lats, lngs
    # distance_m's arithmetic, with each point's radians and cosine taken once
    lat_r = list(map(math.radians, lats.tolist()))
    lng_r = list(map(math.radians, lngs.tolist()))
    cos_r = list(map(math.cos, lat_r))
    kept = [0]
    lat1, lng1, cos1 = lat_r[0], lng_r[0], cos_r[0]
    for i in range(1, len(lat_r)):
        lat2, lng2 = lat_r[i], lng_r[i]
        h = (math.sin((lat2 - lat1) / 2) ** 2
             + cos1 * cos_r[i] * math.sin((lng2 - lng1) / 2) ** 2)
        if 2 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(h))) >= spacing_m:
            kept.append(i)
            lat1, lng1, cos1 = lat2, lng2, cos_r[i]
    return lats[kept], lngs[kept]


def trace_length_m(points: Sequence[LatLng]) -> float:
    """Total polyline length in metres."""
    return sum(distance_m(a, b) for a, b in zip(points, points[1:]))


def offset_point(origin: LatLng, east_m: float, north_m: float) -> GeoPoint:
    """Point displaced from origin by local metric offsets (test/fixture aid)."""
    dlat = math.degrees(north_m / EARTH_RADIUS_M)
    dlng = math.degrees(east_m / (EARTH_RADIUS_M * math.cos(math.radians(origin[0]))))
    return GeoPoint(origin[0] + dlat, origin[1] + dlng)
