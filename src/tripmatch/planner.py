"""Single-ride journey planning against a GTFS bundle.

Produces walk - one transit ride - walk itineraries for an origin,
destination and earliest start. Walking is straight-line at a fixed speed;
the walk to the boarding stop is scheduled to arrive exactly at departure, so
itinerary durations carry no artificial origin wait. Another planner can
stand in by implementing the JourneyPlanner protocol.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta
from typing import Optional, Protocol

import numpy as np

from .geodesy import distances_m, ranges
from .gtfs import UNTIMED, GtfsBundle, GtfsStop, gtfs_time_to_datetime
from .types import GeoPoint, LineType

DEFAULT_N_PLANS = 3
_DAY_S = 86400


class PlanError(Exception):
    pass


@dataclass(frozen=True)
class PlanQuery:
    origin: GeoPoint
    destination: GeoPoint
    earliest_start: datetime
    max_walk_m: float
    n_plans: int = DEFAULT_N_PLANS

    def __post_init__(self) -> None:
        if self.max_walk_m <= 0:
            raise ValueError("max_walk_m must be positive")
        if self.n_plans < 1:
            raise ValueError("n_plans must be >= 1")


@dataclass(frozen=True, eq=False)
class TransitLeg:
    line_type: LineType
    line_name: str
    trip_id: str
    board_stop: str
    board_time: datetime
    alight_stop: str
    alight_time: datetime
    geometry: np.ndarray  # (k, 2) lat/lng vertices

    @property
    def duration_s(self) -> float:
        return (self.alight_time - self.board_time).total_seconds()


@dataclass(frozen=True)
class Itinerary:
    start_time: datetime
    end_time: datetime
    walk_before_s: float
    transit: TransitLeg
    walk_after_s: float
    total_duration_s: float

    def __post_init__(self) -> None:
        if self.transit.board_time < self.start_time:
            raise ValueError("boarding precedes itinerary start")
        if self.transit.alight_time > self.end_time:
            raise ValueError("alighting follows itinerary end")
        if abs(self.total_duration_s -
               (self.end_time - self.start_time).total_seconds()) > 1e-6:
            raise ValueError("total duration inconsistent with start/end")
        if len(self.transit.geometry) < 2:
            raise ValueError("transit geometry needs at least 2 points")

    @property
    def wait_s(self) -> float:
        wait = (self.total_duration_s - self.walk_before_s
                - self.transit.duration_s - self.walk_after_s)
        return max(0.0, wait)


@dataclass
class PlanResult:
    itineraries: list[Itinerary] = field(default_factory=list)
    reason: Optional[str] = None  # set when empty for a nameable cause


class JourneyPlanner(Protocol):
    def plan(self, query: PlanQuery) -> PlanResult: ...


class TimetablePlanner:
    """Embedded single-leg planner over a GTFS bundle bound to one date.

    It plans over trip instances: every trip that runs on the day, and,
    shifted back by one day, every trip of the day before with a time past
    24:00:00, which reaches the small hours of the day. The two runs of one
    trip are separate instances. The departures are arrays sorted by (stop,
    departure, instance, sequence), so the departures of one stop in a time
    window are one run, found by binary search on (stop, departure) keys.
    It reads the bundle's codes as they are: a trip code is the trip's row
    in trips, so instances follow (trip_id, day) order, and a stop code is
    the stop's rank in stop_id order, so codes compare as stop ids do.
    """

    def __init__(self, gtfs: GtfsBundle, day: date, walk_speed_mps: float,
                 search_window_s: float = 7200.0):
        self.gtfs = gtfs
        self.day = day
        self.walk_speed_mps = walk_speed_mps
        self.search_window_s = search_window_s
        st = self._st = gtfs.stop_times
        today = gtfs.runs_on(day)
        yesterday = gtfs.runs_on(day - timedelta(days=1))
        past_midnight = np.zeros(len(st.trip_ids), dtype=bool)
        past_midnight[st.trip[np.maximum(st.arrival_s, st.departure_s)
                              >= _DAY_S]] = True
        runs_late = past_midnight[:len(yesterday)] & yesterday
        if not today.any() and not runs_late.any():
            raise PlanError(f"no GTFS services active on {day}")
        # the stops of stops.txt by code
        self._stops = list(map(gtfs.stops.__getitem__,
                               st.stop_ids[:len(gtfs.stops)]))
        self._stop_lat = np.array([s.lat for s in self._stops])
        self._stop_lng = np.array([s.lng for s in self._stops])
        self._stop_points = np.stack([self._stop_lat, self._stop_lng], axis=1)

        # instances in (trip, shift) order: the day before's run first
        trip = np.concatenate([np.flatnonzero(runs_late), np.flatnonzero(today)])
        shift = np.repeat([-_DAY_S, 0], [runs_late.sum(), today.sum()])
        order = np.lexsort((shift, trip))
        trip, shift = trip[order], shift[order]
        self._inst_trip, self._inst_shift = trip.tolist(), shift

        # the stop-time rows of every instance, and their timed departures
        first = st.trip_rows[trip]
        lengths = st.trip_rows[trip + 1] - first
        inst = np.repeat(np.arange(len(trip)), lengths)
        rows = ranges(first, lengths)[0]
        departure = st.departure_s[rows]
        timed = departure != UNTIMED  # untimed stops are not boardable
        inst, rows = inst[timed], rows[timed]
        departure = departure[timed] + shift[inst]
        # rows enter in (instance, sequence) order, so one stable sort of
        # the (stop, departure) keys orders by (stop, departure, instance,
        # sequence)
        key = st.stop[rows].astype(np.int64)
        key <<= 32
        key += departure
        key += 2**31
        by_stop = np.argsort(key, kind="stable")
        self._dep_s = departure[by_stop]
        self._dep_inst = inst[by_stop]
        self._dep_row = rows[by_stop]
        self._dep_key = key[by_stop]
        self._inst_end = st.trip_rows[trip + 1]
        self._midnight = datetime.combine(day, datetime.min.time())

    def departures(self, stop_id: str) -> list[tuple[int, str, int]]:
        """(departure_s, trip_id, sequence) of every boardable call at the stop,
        in index order, with the day before's runs shifted back one day."""
        code = bisect_left(self._st.stop_ids, stop_id, 0, len(self._stops))
        if self._st.stop_ids[code:code + 1] != (stop_id,):
            return []
        lo, hi = np.searchsorted(self._dep_key, [code << 32, (code + 1) << 32])
        return [(dep, self._st.trip_ids[self._inst_trip[inst]], seq)
                for dep, inst, seq in zip(
                    self._dep_s[lo:hi].tolist(), self._dep_inst[lo:hi].tolist(),
                    self._st.sequence[self._dep_row[lo:hi]].tolist())]

    def _service_seconds(self, t: datetime) -> float:
        return (t - self._midnight).total_seconds()

    def _near(self, center: GeoPoint, radius_m: float,
              ) -> tuple[np.ndarray, np.ndarray]:
        """The codes of the stops within radius_m of center and their
        distances, nearest first; stops at equal distance in stop_id order."""
        d = distances_m(center.lat, center.lng, self._stop_lat, self._stop_lng)
        near = np.flatnonzero(d <= radius_m)
        near = near[np.argsort(d[near], kind="stable")]
        return near, d[near]

    def stops_within(self, center: GeoPoint, radius_m: float,
                     ) -> list[tuple[GtfsStop, float]]:
        """Every stop within radius_m of center with its distance, nearest
        first; stops at equal distance in stop_id order."""
        near, d = self._near(center, radius_m)
        return list(zip(map(self._stops.__getitem__, near.tolist()), d.tolist()))

    def plan(self, query: PlanQuery) -> PlanResult:
        codes, walk_m = self._near(query.origin, query.max_walk_m)
        if not len(codes):
            return PlanResult([], reason=(
                f"no stops within {query.max_walk_m:.0f} m of origin"))
        dest, dest_m = self._near(query.destination, query.max_walk_m)
        if not len(dest):
            return PlanResult([], reason=(
                f"no stops within {query.max_walk_m:.0f} m of destination"))
        st = self._st
        dest_dist = np.full(len(st.stop_ids), np.inf)
        dest_dist[dest] = dest_m

        earliest_s = self._service_seconds(query.earliest_start)
        horizon_s = earliest_s + self.search_window_s

        # the departures in the window at each origin stop, found by binary
        # search of the (stop, departure) keys
        lo = np.searchsorted(self._dep_key, _keys(
            codes, np.ceil(earliest_s + walk_m / self.walk_speed_mps)))
        hi = np.searchsorted(self._dep_key, _keys(codes, math.floor(horizon_s) + 1))
        counts = np.maximum(hi - lo, 0)
        departure = ranges(lo, counts)[0]
        if not len(departure):
            return PlanResult([], reason="no reachable trip serves the query")
        board = np.repeat(np.arange(len(codes)), counts)
        inst, row = self._dep_inst[departure], self._dep_row[departure]
        # every later call of the trip, kept where a timed arrival lies
        # within the walk budget of the destination
        tail = self._inst_end[inst] - row - 1
        alight = ranges(row + 1, tail)[0]
        pair = np.repeat(np.arange(len(departure)), tail)
        keep = ((walk_m[board[pair]] + dest_dist[st.stop[alight]] <= query.max_walk_m)
                & (st.arrival_s[alight] != UNTIMED))
        pair, alight = pair[keep], alight[keep]

        # per instance, the best boarding/alighting combination by the key
        # (end, duration, total walk, board stop id, alight stop id,
        # departure, row), where row order is sequence order within a trip
        board, inst, row = board[pair], inst[pair], row[pair]
        dep_s = self._dep_s[departure[pair]]
        stop = st.stop[alight]
        d_board, d_alight = walk_m[board], dest_dist[stop]
        arrival_s = st.arrival_s[alight] + self._inst_shift[inst]
        walk_after = d_alight / self.walk_speed_mps
        end_s = arrival_s + walk_after
        duration = d_board / self.walk_speed_mps + (arrival_s - dep_s) + walk_after
        order = np.lexsort((row, dep_s, stop, codes[board],
                            d_board + d_alight, duration, end_s, inst))
        best = order[np.diff(inst[order], prepend=-1) != 0]
        # then the instances by (end, duration, trip_id, day)
        best = best[np.lexsort((inst[best], duration[best], end_s[best]))]
        itineraries = [self._build_itinerary(self._inst_trip[inst[k]], (
            int(row[k]), int(alight[k]), int(dep_s[k]), int(arrival_s[k]),
            float(d_board[k]), float(d_alight[k])))
            for k in best[:query.n_plans].tolist()]
        if not itineraries:
            return PlanResult([], reason="no reachable trip serves the query")
        return PlanResult(itineraries)

    def _build_itinerary(self, trip: int, payload: tuple) -> Itinerary:
        board_row, alight_row, dep_s, arrival_s, d_board, d_alight = payload
        trip_id, trips = self._st.trip_ids[trip], self.gtfs.trips
        route = self.gtfs.routes[trips.route_ids[trips.route[trip]]]
        walk_before = d_board / self.walk_speed_mps
        walk_after = d_alight / self.walk_speed_mps
        board_dt = gtfs_time_to_datetime(self.day, dep_s)
        alight_dt = gtfs_time_to_datetime(self.day, arrival_s)
        leg = TransitLeg(
            line_type=route.line_type,
            line_name=route.short_name,
            trip_id=trip_id,
            board_stop=self._st.stop_ids[self._st.stop[board_row]],
            board_time=board_dt,
            alight_stop=self._st.stop_ids[self._st.stop[alight_row]],
            alight_time=alight_dt,
            geometry=self._leg_geometry(trip, board_row, alight_row),
        )
        start = board_dt - timedelta(seconds=walk_before)
        end = alight_dt + timedelta(seconds=walk_after)
        return Itinerary(
            start_time=start,
            end_time=end,
            walk_before_s=walk_before,
            transit=leg,
            walk_after_s=walk_after,
            total_duration_s=(end - start).total_seconds(),
        )

    def _leg_geometry(self, trip: int, board_row: int,
                      alight_row: int) -> np.ndarray:
        """The leg's (k, 2) lat/lng vertices: the board stop, the trip's shape
        from its vertex nearest that stop to a later one nearest the alight
        stop, and the alight stop; else the leg's stops."""
        stops = self._stop_points[self._st.stop[board_row:alight_row + 1]]
        ends = stops[[0, -1]]
        trips = self.gtfs.trips
        code = trips.shape[trip]
        shape = self.gtfs.shapes.get(trips.shape_ids[code]) if code >= 0 else None
        if shape is not None:
            i, j = (int(np.argmin(distances_m(shape[:, 0], shape[:, 1], lat, lng)))
                    for lat, lng in ends)
            if i < j:  # then shape[i] != shape[j], as argmin takes the first
                return _dedupe(np.concatenate([ends[:1], shape[i:j + 1], ends[1:]]))
        pts = _dedupe(stops)
        return pts if len(pts) >= 2 else ends  # co-located stops still form a leg


def _keys(stops: np.ndarray, departure_s) -> np.ndarray:
    """The keys of departures in the (stop, departure) order of the index,
    departure_s holding whole seconds; a time outside the int32 range of
    stop times is clamped to just before or just after every key of the
    stop."""
    return ((stops.astype(np.int64) << 32)
            + np.clip(departure_s + 2.0**31, -1, 2**32).astype(np.int64))


def _dedupe(points: np.ndarray) -> np.ndarray:
    """The (k, 2) points without each one equal to the point before it."""
    keep = np.ones(len(points), dtype=bool)
    keep[1:] = (points[1:] != points[:-1]).any(axis=1)
    return points[keep]
