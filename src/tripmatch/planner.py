"""Single-ride journey planning against a GTFS bundle.

Produces walk - one transit ride - walk itineraries for an origin,
destination and earliest start. Walking is straight-line at a fixed speed;
the walk to the boarding stop is scheduled to arrive exactly at departure, so
itinerary durations carry no artificial origin wait. Another planner can
stand in by implementing the JourneyPlanner protocol.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta
from typing import Optional, Protocol, Sequence

import numpy as np

from .geodesy import distances_m
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


@dataclass(frozen=True)
class TransitLeg:
    line_type: LineType
    line_name: str
    trip_id: str
    board_stop: str
    board_time: datetime
    alight_stop: str
    alight_time: datetime
    geometry: tuple[GeoPoint, ...]

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
    window are one run, found by binary search on (stop, departure) keys;
    instances follow (trip_id, day) order.
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
        # the trips row of each stop-time trip code; a trip missing from
        # trips.txt, row -1, reads the appended False
        self._trip_row = gtfs.stop_time_trips
        runs_today = np.append(today, False)[self._trip_row]
        past_midnight = np.zeros(len(st.trip_ids), dtype=bool)
        past_midnight[st.trip[np.maximum(st.arrival_s, st.departure_s)
                              >= _DAY_S]] = True
        runs_late = past_midnight & np.append(yesterday, False)[self._trip_row]
        if not today.any() and not runs_late.any():
            raise PlanError(f"no GTFS services active on {day}")
        self._stop_code = {sid: i for i, sid in enumerate(st.stop_ids)}
        # stop codes follow first appearance; a pair's key compares stop ids
        self._stop_rank = np.empty(len(st.stop_ids), dtype=np.int64)
        self._stop_rank[sorted(range(len(st.stop_ids)),
                               key=st.stop_ids.__getitem__)] = np.arange(
            len(st.stop_ids))
        self._stops = sorted(gtfs.stops.values(), key=lambda s: s.stop_id)
        self._stop_lat = np.array([s.lat for s in self._stops])
        self._stop_lng = np.array([s.lng for s in self._stops])

        # instances in (trip, shift) order: the day before's run first
        trip = np.concatenate([np.flatnonzero(runs_late), np.flatnonzero(runs_today)])
        shift = np.repeat([-_DAY_S, 0], [runs_late.sum(), runs_today.sum()])
        order = np.lexsort((shift, trip))
        trip, shift = trip[order], shift[order]
        self._inst_trip, self._inst_shift = trip.tolist(), shift

        # the stop-time rows of every instance, and their timed departures
        first = st.trip_rows[trip]
        lengths = st.trip_rows[trip + 1] - first
        inst = np.repeat(np.arange(len(trip)), lengths)
        rows = _ranges(first, lengths)
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
        code = self._stop_code.get(stop_id)
        if code is None:
            return []
        lo, hi = np.searchsorted(self._dep_key, [code << 32, (code + 1) << 32])
        return [(dep, self._st.trip_ids[self._inst_trip[inst]], seq)
                for dep, inst, seq in zip(
                    self._dep_s[lo:hi].tolist(), self._dep_inst[lo:hi].tolist(),
                    self._st.sequence[self._dep_row[lo:hi]].tolist())]

    def _service_seconds(self, t: datetime) -> float:
        return (t - self._midnight).total_seconds()

    def stops_within(self, center: GeoPoint, radius_m: float,
                     ) -> list[tuple[GtfsStop, float]]:
        """Every stop within radius_m of center with its distance, nearest
        first; stops at equal distance in stop_id order."""
        d = distances_m(center.lat, center.lng, self._stop_lat, self._stop_lng)
        near = np.flatnonzero(d <= radius_m)
        near = near[np.argsort(d[near], kind="stable")]
        return [(self._stops[i], dist)
                for i, dist in zip(near.tolist(), d[near].tolist())]

    def plan(self, query: PlanQuery) -> PlanResult:
        origin_stops = self.stops_within(query.origin, query.max_walk_m)
        if not origin_stops:
            return PlanResult([], reason=(
                f"no stops within {query.max_walk_m:.0f} m of origin"))
        dest_stops = self.stops_within(query.destination, query.max_walk_m)
        if not dest_stops:
            return PlanResult([], reason=(
                f"no stops within {query.max_walk_m:.0f} m of destination"))
        dest_dist = np.full(len(self._st.stop_ids), np.inf)
        for stop, d in dest_stops:
            if stop.stop_id in self._stop_code:
                dest_dist[self._stop_code[stop.stop_id]] = d

        earliest_s = self._service_seconds(query.earliest_start)
        horizon_s = earliest_s + self.search_window_s
        st = self._st

        # the departures in the window at each origin stop, found in one
        # search of the (stop, departure) keys
        board_ids, codes, lows, walk_m = [], [], [], []
        for board_stop, d in origin_stops:
            code = self._stop_code.get(board_stop.stop_id)
            if code is not None:
                board_ids.append(board_stop.stop_id)
                codes.append(code)
                lows.append(_key_of(code, math.ceil(
                    earliest_s + d / self.walk_speed_mps)))
                walk_m.append(d)
        high = math.floor(horizon_s) + 1
        lo, hi = np.searchsorted(
            self._dep_key, lows + [_key_of(c, high) for c in codes]
        ).reshape(2, len(codes))
        counts = np.maximum(hi - lo, 0)
        departure = _ranges(lo, counts)
        if not len(departure):
            return PlanResult([], reason="no reachable trip serves the query")
        board = np.repeat(np.arange(len(codes)), counts)
        inst, row = self._dep_inst[departure], self._dep_row[departure]
        # every later call of the trip, kept where a timed arrival lies
        # within the walk budget of the destination
        tail = self._inst_end[inst] - row - 1
        alight = _ranges(row + 1, tail)
        pair = np.repeat(np.arange(len(departure)), tail)
        walk_m = np.array(walk_m)
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
        order = np.lexsort((row, dep_s, self._stop_rank[stop],
                            self._stop_rank[np.array(codes)[board]],
                            d_board + d_alight, duration, end_s, inst))
        best = order[np.diff(inst[order], prepend=-1) != 0]
        ranked = sorted(zip(end_s[best].tolist(), duration[best].tolist(),
                            inst[best].tolist(), best.tolist()),
                        key=lambda r: (r[0], r[1],
                                       st.trip_ids[self._inst_trip[r[2]]], r[2]))
        itineraries = [self._build_itinerary(self._inst_trip[i], (
            board_ids[board[k]], int(row[k]), int(alight[k]), int(dep_s[k]),
            int(arrival_s[k]), float(d_board[k]), float(d_alight[k])))
            for _, _, i, k in ranked[:query.n_plans]]
        if not itineraries:
            return PlanResult([], reason="no reachable trip serves the query")
        return PlanResult(itineraries)

    def _build_itinerary(self, trip: int, payload: tuple) -> Itinerary:
        (board_stop_id, board_row, alight_row, dep_s, arrival_s, d_board,
         d_alight) = payload
        trip_id, trips = self._st.trip_ids[trip], self.gtfs.trips
        route = self.gtfs.routes[trips.route_ids[trips.route[self._trip_row[trip]]]]
        walk_before = d_board / self.walk_speed_mps
        walk_after = d_alight / self.walk_speed_mps
        board_dt = gtfs_time_to_datetime(self.day, dep_s)
        alight_dt = gtfs_time_to_datetime(self.day, arrival_s)
        leg = TransitLeg(
            line_type=route.line_type,
            line_name=route.short_name,
            trip_id=trip_id,
            board_stop=board_stop_id,
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
                      alight_row: int) -> tuple[GeoPoint, ...]:
        st = self._st
        stop_seq = [self.gtfs.stops[st.stop_ids[s]].geo
                    for s in st.stop[board_row:alight_row + 1].tolist()]
        board_geo, alight_geo = stop_seq[0], stop_seq[-1]

        trips = self.gtfs.trips
        code = trips.shape[self._trip_row[trip]]
        shape = self.gtfs.shapes.get(trips.shape_ids[code]) if code >= 0 else None
        if shape:
            lat, lng = np.array(shape).T
            i = int(np.argmin(distances_m(lat, lng, *board_geo)))
            j = int(np.argmin(distances_m(lat, lng, *alight_geo)))
            if i < j:
                pts = _dedupe([board_geo, *shape[i:j + 1], alight_geo])
                if len(pts) >= 2:
                    return tuple(pts)
        pts = _dedupe(stop_seq)
        if len(pts) < 2:
            pts = [board_geo, alight_geo]  # co-located stops still form a leg
        return tuple(pts)


def _key_of(stop: int, departure_s: int) -> int:
    """The key of a departure in the (stop, departure) order of the index;
    a time outside the int32 range of stop times is clamped to just before
    or just after every key of the stop."""
    return (stop << 32) + min(max(departure_s + 2**31, -1), 2**32)


def _ranges(first: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The concatenated index ranges first[k]:first[k] + lengths[k]."""
    return np.arange(lengths.sum()) + np.repeat(first - np.cumsum(lengths) + lengths,
                                                lengths)


def _dedupe(points: Sequence[GeoPoint]) -> list[GeoPoint]:
    out: list[GeoPoint] = []
    for p in points:
        if not out or p != out[-1]:
            out.append(p)
    return out
