"""Single-ride journey planning against a GTFS bundle.

Produces walk - one transit ride - walk itineraries for an origin,
destination and earliest start. Walking is straight-line at a fixed speed;
the walk to the boarding stop is scheduled to arrive exactly at departure, so
itinerary durations carry no artificial origin wait.

search finds the rides of many queries at once, and plan builds one query's
itineraries from them. The search first expands the departures of a short
first window into every later call of their trips; the n-th best end among
them bounds the ends of the n plans picked. Every departure of the index
carries the least timed arrival of a later call of its trip run, a lower
bound of the end of any plan that boards there, since the walk after the
ride is never negative; a later departure whose bound passes the n-th best
end cannot give a picked plan, and is not expanded. The bound assumes
nothing of the order of a trip's stop times. Another planner can stand in
by implementing the JourneyPlanner protocol.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta
from typing import Optional, Protocol, Sequence

import numpy as np

from .geodesy import blocks, distances_m, ranges
from .gtfs import UNTIMED, GtfsBundle, GtfsStop, gtfs_time_to_datetime
from .types import GeoPoint, LineType

DEFAULT_N_PLANS = 3
_DAY_S = 86400
_INT32_MAX = 2**31 - 1
#: the first window of search, from each query's earliest start: only its
#: speed depends on it
_FIRST_WINDOW_S = 1200.0
_MAX_PAIRS = 1 << 12  # (departure, alight) pairs gathered per search block


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
        value = self.max_walk_m
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not 0 < value < math.inf):
            raise ValueError(f"max_walk_m must be a positive finite number, "
                             f"got {value!r}")
        if type(self.n_plans) is not int or self.n_plans < 1:
            raise ValueError(f"n_plans must be an integer >= 1, "
                             f"got {self.n_plans!r}")


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


@dataclass(frozen=True)
class Picks:
    """What search found for one query: its rides in plan order, each the
    instance's trip code and the (board row, alight row, departure,
    arrival, board walk, alight walk) that builds its itinerary; without
    one, the reason."""
    rides: list[tuple[int, tuple]]
    reason: Optional[str] = None


@dataclass
class PlanResult:
    itineraries: list[Itinerary] = field(default_factory=list)
    reason: Optional[str] = None  # set when empty for a nameable cause


class JourneyPlanner(Protocol):
    def search(self, queries: Sequence[PlanQuery]) -> list[Picks]: ...

    def plan(self, query: PlanQuery,
             picks: Optional[Picks] = None) -> PlanResult: ...


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

        # the stop-time rows of every instance
        first = st.trip_rows[trip]
        lengths = st.trip_rows[trip + 1] - first
        inst = np.repeat(np.arange(len(trip)), lengths)
        rows = ranges(first, lengths)[0]
        del first, lengths
        # per row, the least end of a plan boarding there, as an int32 that
        # stays a lower bound, and its (stop, departure) key. Rows enter in
        # (instance, sequence) order, so one stable sort of the keys orders
        # the departures by (stop, departure, instance, sequence), and the
        # untimed ones, which are not boardable, last, where they are cut
        bound = _later_arrivals(st.arrival_s[rows], inst)
        shifts = shift[inst]
        bound += shifts
        np.minimum(bound, _INT32_MAX, out=bound)
        bound = bound.astype(np.int32)
        departure = st.departure_s[rows]
        key = st.stop[rows].astype(np.int64)
        key <<= 32
        key += departure
        key += shifts
        del shifts
        key += 2**31
        untimed = departure == UNTIMED
        del departure
        key[untimed] = np.iinfo(np.int64).max
        boardable = len(key) - np.count_nonzero(untimed)
        del untimed
        by_stop = np.argsort(key, kind="stable")[:boardable]
        self._dep_key = key[by_stop]
        del key
        # a key's low 32 bits hold its departure, raised by 2**31
        self._dep_s = (self._dep_key & (2**32 - 1)) - 2**31
        self._dep_inst = inst[by_stop]
        del inst
        self._dep_row = rows[by_stop]
        del rows
        self._dep_bound = bound[by_stop]
        del bound, by_stop
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

    def _near(self, centers: Sequence[GeoPoint], radius_m: np.ndarray,
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(center, stop code, distance) of every stop within radius_m[k] of
        centers[k], in (center, code) order; the distances are measured in
        blocks of at most _MAX_PAIRS."""
        lat = np.array([c.lat for c in centers])[:, None]
        lng = np.array([c.lng for c in centers])[:, None]
        out = []
        for block in blocks(np.full(len(centers), len(self._stops)), _MAX_PAIRS):
            d = distances_m(lat[block], lng[block], self._stop_lat, self._stop_lng)
            center, code = np.nonzero(d <= radius_m[block, None])
            out.append((center + block.start, code, d[center, code]))
        return tuple(map(np.concatenate, zip(*out)))

    def stops_within(self, center: GeoPoint, radius_m: float,
                     ) -> list[tuple[GtfsStop, float]]:
        """Every stop within radius_m of center with its distance, nearest
        first; stops at equal distance in stop_id order."""
        _, near, d = self._near([center], np.array([radius_m]))
        order = np.argsort(d, kind="stable")
        return list(zip(map(self._stops.__getitem__, near[order].tolist()),
                        d[order].tolist()))

    def search(self, queries: Sequence[PlanQuery]) -> list[Picks]:
        """The picks of every query, searched for all of them at once.

        A plan boards a departure of the query's window at a stop within
        the walk budget of the origin, and alights at a later timed call of
        the instance within the rest of the budget of the destination. Each
        instance's best plan counts, by (end, duration, total walk, board
        stop id, alight stop id, departure, row); the first n_plans
        instances by (end, duration, trip_id, day) are picked.

        The departures of the first _FIRST_WINDOW_S of each window are
        expanded first, into every (departure, alight) pair. Let E be the
        n_plans-th least end of their instances: n_plans instances end by
        E, so every picked plan ends by E. Of the later departures, only
        those bounded by E are expanded, as a plan ends at its arrival plus
        a walk that is never negative, so that it ends no earlier than the
        bound of its departure; float rounding is monotone, so this holds
        for the computed ends too. A query with fewer than n_plans
        instances after the first pass expands all of its departures. The
        cut keeps every picked plan and drops only plans that end after
        them, so the picks are those of expanding every departure.
        """
        if not queries:
            return []
        st, speed = self._st, self.walk_speed_mps
        n = len(queries)
        max_walk = np.array([query.max_walk_m for query in queries], dtype=float)
        n_plans = np.array([query.n_plans for query in queries])
        # the stops within the walk budget of each origin and destination:
        # per origin stop (entry) its query, code and walk, and per
        # destination stop its walk, keyed by (query, code) in key order
        center, code, walk_m = self._near(
            [q.origin for q in queries] + [q.destination for q in queries],
            np.concatenate([max_walk, max_walk]))
        origin = center < n
        has_origin = np.bincount(center[origin], minlength=n) > 0
        has_dest = np.bincount(center[~origin] - n, minlength=n) > 0
        dest_key = code[~origin] + (center[~origin] - n) * len(st.stop_ids)
        dest_m = walk_m[~origin]
        entries = origin & has_dest[center % n]
        entry_q, code, entry_walk = center[entries], code[entries], walk_m[entries]
        picks = [None if both else Picks([], (
            f"no stops within {query.max_walk_m:.0f} m of "
            f"{'destination' if start else 'origin'}"))
            for query, start, both in zip(queries, has_origin.tolist(),
                                          (has_origin & has_dest).tolist())]
        unreachable = Picks([], "no reachable trip serves the query")
        if not len(entry_q):
            return [p or unreachable for p in picks]
        earliest = np.array([self._service_seconds(query.earliest_start)
                             for query in queries])[entry_q]

        # the departures of each entry's window, lo:hi, and of its first
        # window, lo:mid, found by binary search of the (stop, departure) keys
        lo, mid, hi = (np.searchsorted(self._dep_key, _keys(code, t)) for t in (
            np.ceil(earliest + entry_walk / speed),
            np.floor(earliest + _FIRST_WINDOW_S) + 1,
            np.floor(earliest + self.search_window_s) + 1))
        hi = np.maximum(hi, lo)
        mid = np.clip(mid, lo, hi)

        def expand(lo, hi, cut=None):
            """(departure, alight row, entry, alight walk) of each pair that
            the departures lo[i]:hi[i] of entry i give, where the alight call
            is timed and both walks together keep to the budget; only the
            departures bounded by cut of their query, when given. Departures
            and pairs are each gathered in blocks of at most _MAX_PAIRS."""
            out = []
            for entries in blocks(hi - lo, _MAX_PAIRS):
                count = (hi - lo)[entries]
                departure, _ = ranges(lo[entries], count)
                entry = np.repeat(np.arange(entries.start, entries.stop), count)
                if cut is not None:
                    kept = self._dep_bound[departure] <= cut[entry_q[entry]]
                    departure, entry = departure[kept], entry[kept]
                row = self._dep_row[departure]
                tail = self._inst_end[self._dep_inst[departure]] - row - 1
                for block in blocks(tail, _MAX_PAIRS):
                    alight, _ = ranges(row[block] + 1, tail[block])
                    pair = np.repeat(np.arange(block.start, block.stop),
                                     tail[block])
                    timed = st.arrival_s[alight] != UNTIMED
                    alight, pair = alight[timed], pair[timed]
                    of = entry[pair]
                    key = st.stop[alight] + entry_q[of] * len(st.stop_ids)
                    at = np.minimum(np.searchsorted(dest_key, key),
                                    len(dest_key) - 1)
                    d_alight = np.where(dest_key[at] == key, dest_m[at], np.inf)
                    kept = entry_walk[of] + d_alight <= max_walk[entry_q[of]]
                    out.append((departure[pair[kept]], alight[kept], of[kept],
                                d_alight[kept]))
            return [np.concatenate(column) for column in zip(*out)] if out else [
                np.empty(0, np.int64)] * 3 + [np.empty(0)]

        def rank(departure, alight, entry, d_alight):
            """Each (query, instance)'s best pair, ranked per query by (end,
            duration, instance): their indices, queries, ends and ranks."""
            q = entry_q[entry]
            inst, row = self._dep_inst[departure], self._dep_row[departure]
            dep_s, d_board = self._dep_s[departure], entry_walk[entry]
            stop = st.stop[alight]
            arrival_s = st.arrival_s[alight] + self._inst_shift[inst]
            walk_after = d_alight / speed
            end_s = arrival_s + walk_after
            duration = d_board / speed + (arrival_s - dep_s) + walk_after
            of = q * len(self._inst_trip) + inst
            order = np.lexsort((row, dep_s, stop, st.stop[row],
                                d_board + d_alight, duration, end_s, of))
            best = order[np.diff(of[order], prepend=-1) != 0]
            best = best[np.lexsort((inst[best], duration[best], end_s[best],
                                    q[best]))]
            q = q[best]
            return best, q, end_s[best], np.arange(len(q)) - np.searchsorted(q, q)

        pairs = expand(lo, mid)
        best, q, end_s, nth = rank(*pairs)
        cut = np.full(len(queries), np.inf)
        last = nth == n_plans[q] - 1
        cut[q[last]] = end_s[last]
        pairs = [np.concatenate([column[best], more]) for column, more in
                 zip(pairs, expand(mid, hi, cut))]
        best, q, _, nth = rank(*pairs)
        picked = nth < n_plans[q]
        departure, alight, entry, d_alight = (column[best[picked]]
                                              for column in pairs)
        inst = self._dep_inst[departure]
        rides: list[list] = [[] for _ in queries]
        arrival_s = st.arrival_s[alight] + self._inst_shift[inst]
        for k, i, *payload in zip(*(column.tolist() for column in (
                q[picked], inst, self._dep_row[departure], alight,
                self._dep_s[departure], arrival_s, entry_walk[entry],
                d_alight))):
            rides[k].append((self._inst_trip[i], tuple(payload)))
        return [p or (Picks(r) if r else unreachable)
                for p, r in zip(picks, rides)]

    def plan(self, query: PlanQuery, picks: Optional[Picks] = None,
             ) -> PlanResult:
        """The itineraries of the query's picks from search, in their order;
        the picks are searched for the query alone when not given."""
        if picks is None:
            [picks] = self.search([query])
        if not picks.rides:
            return PlanResult([], reason=picks.reason)
        return PlanResult([self._build_itinerary(trip, payload)
                           for trip, payload in picks.rides])

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


def _later_arrivals(arrival_s: np.ndarray, inst: np.ndarray) -> np.ndarray:
    """For each stop-time row, the least timed arrival of a later row of
    its instance, rows being in (instance, sequence) order; 2**32 for a row
    without one. Each instance's values are raised by instance * 2**33, more
    than any of them, so that one running minimum from the last row back
    meets the rows of later instances only above every value of its own."""
    later = arrival_s.astype(np.int64)
    later[arrival_s == UNTIMED] = 2**32
    later += inst << 33
    back = later[::-1]
    np.minimum.accumulate(back, out=back)
    later[:-1] = later[1:]
    later[:-1] -= inst[:-1] << 33
    later[-1:] = 2**32
    return np.minimum(later, 2**32, out=later)


def _dedupe(points: np.ndarray) -> np.ndarray:
    """The (k, 2) points without each one equal to the point before it."""
    keep = np.ones(len(points), dtype=bool)
    keep[1:] = (points[1:] != points[:-1]).any(axis=1)
    return points[keep]
