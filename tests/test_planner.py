import math
import random
from datetime import date, datetime, timedelta
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tripmatch import planner as planner_module
from tripmatch.geodesy import distance_m, distances_m, offset_point
from tripmatch.gtfs import GtfsService, load_gtfs
from tripmatch.planner import (
    Itinerary,
    PlanError,
    PlanQuery,
    TimetablePlanner,
    TransitLeg,
    _dedupe,
)
from tripmatch.static import MatchConstants, adjusted_query
from tripmatch.types import Activity, GeoPoint, LineType

from conftest import DAY, at, fp, hex_points, make_bundle, segment_of

BASE = GeoPoint(60.17, 24.94)
S9 = 9 * 3600  # service seconds at 09:00
WALK_MPS = 1.34
MAX_WALK_M = 1000.0  # 2 dEmax, the radius the static matcher asks for


def grid_stop(e, n):
    return offset_point(BASE, e, n)


def simple_bundle(extra_trips=(), extra_stops=(), services=None):
    a, b, c = grid_stop(0, 0), grid_stop(0, 1500), grid_stop(0, 3000)
    stops = {"A": (a.lat, a.lng), "B": (b.lat, b.lng), "C": (c.lat, c.lng)}
    stops.update(extra_stops)
    trips = [("t1000", "r1", [("A", 36000), ("B", 36300), ("C", 36600)])]
    trips += list(extra_trips)
    return make_bundle(stops, {"r1": ("16", 3)}, trips, services=services)


def test_single_trip_fixture_boards_at_departure():
    # origin 100 m from stop A, earliest start 09:55 -> board the 10:00 trip
    # after a ~75 s walk
    bundle = simple_bundle()
    planner = TimetablePlanner(bundle, DAY, WALK_MPS)
    origin = offset_point(BASE, 100.0, 0.0)
    dest = grid_stop(30.0, 3000)
    result = planner.plan(PlanQuery(origin, dest,
                                    datetime(2016, 8, 26, 9, 55), MAX_WALK_M))
    assert result.reason is None
    [it] = result.itineraries
    assert it.transit.trip_id == "t1000"
    assert it.transit.board_time == datetime(2016, 8, 26, 10, 0)
    assert it.walk_before_s == pytest.approx(100.0 / 1.34, rel=0.01)
    assert it.start_time == it.transit.board_time - timedelta(
        seconds=it.walk_before_s)
    assert it.wait_s == pytest.approx(0.0, abs=1e-6)


def test_origin_too_far_from_stops_is_empty_with_reason():
    planner = TimetablePlanner(simple_bundle(), DAY, WALK_MPS)
    origin = offset_point(BASE, 5000.0, 0.0)
    result = planner.plan(PlanQuery(origin, grid_stop(0, 3000),
                                    datetime(2016, 8, 26, 9, 55), MAX_WALK_M))
    assert result.itineraries == []
    assert "origin" in result.reason


def test_two_trips_ranked_by_arrival():
    bundle = simple_bundle(extra_trips=[
        ("t1010", "r1", [("A", 36600), ("B", 36900), ("C", 37200)])])
    planner = TimetablePlanner(bundle, DAY, WALK_MPS)
    result = planner.plan(PlanQuery(grid_stop(50, 0), grid_stop(0, 3000),
                                    datetime(2016, 8, 26, 9, 55), MAX_WALK_M))
    assert [it.transit.trip_id for it in result.itineraries] == [
        "t1000", "t1010"]


def test_departures_before_walk_arrival_are_missed():
    planner = TimetablePlanner(simple_bundle(), DAY, WALK_MPS)
    origin = offset_point(BASE, 800.0, 0.0)  # ~597 s walk to stop A
    result = planner.plan(PlanQuery(origin, grid_stop(0, 3000),
                                    datetime(2016, 8, 26, 9, 52), MAX_WALK_M))
    assert result.itineraries == []  # 09:52 + 597 s > 10:00 departure


def test_total_walk_budget_enforced():
    planner = TimetablePlanner(simple_bundle(), DAY, WALK_MPS)
    origin = offset_point(BASE, 600.0, 0.0)
    dest = offset_point(grid_stop(0, 3000), 600.0, 0.0)
    result = planner.plan(PlanQuery(origin, dest, datetime(2016, 8, 26, 9, 0),
                                    MAX_WALK_M))
    assert result.itineraries == []  # 600 + 600 > 1000 even though each fits


@pytest.mark.parametrize("field, value", [
    ("max_walk_m", math.nan), ("max_walk_m", math.inf), ("max_walk_m", 0.0),
    ("max_walk_m", -1.0), ("max_walk_m", True), ("max_walk_m", "1000"),
    ("n_plans", 2.5), ("n_plans", True), ("n_plans", 0), ("n_plans", 3.0),
])
def test_plan_query_refuses_a_bad_walk_budget_or_plan_count(field, value):
    fields = dict(origin=BASE, destination=grid_stop(0, 3000),
                  earliest_start=at(0), max_walk_m=MAX_WALK_M, n_plans=3)
    fields[field] = value
    with pytest.raises(ValueError, match=field):
        PlanQuery(**fields)


def test_unserviceable_date_raises():
    bundle = simple_bundle()
    with pytest.raises(PlanError, match="no GTFS services"):
        TimetablePlanner(bundle, date(2017, 8, 26), WALK_MPS)


@pytest.mark.parametrize("walk_speed_mps, search_window_s, message", [
    (WALK_MPS, math.nan, "search_window_s must be >= 0, got nan"),
    (WALK_MPS, -5.0, "search_window_s must be >= 0, got -5.0"),
    (WALK_MPS, math.inf, "search_window_s must be finite, got inf"),
    (0.0, 7200.0, "walk_speed_mps must be positive, got 0.0"),
    (-1.0, 7200.0, "walk_speed_mps must be positive, got -1.0"),
    (math.nan, 7200.0, "walk_speed_mps must be positive, got nan"),
])
def test_planner_refuses_a_bad_walk_speed_or_window(walk_speed_mps,
                                                    search_window_s, message):
    with pytest.raises(ValueError) as exc:
        TimetablePlanner(simple_bundle(), DAY, walk_speed_mps,
                         search_window_s=search_window_s)
    assert str(exc.value) == message


def test_itinerary_time_arithmetic_consistent():
    planner = TimetablePlanner(simple_bundle(), DAY, WALK_MPS)
    result = planner.plan(PlanQuery(grid_stop(80, 0), grid_stop(40, 3000),
                                    datetime(2016, 8, 26, 9, 30), MAX_WALK_M))
    [it] = result.itineraries
    total = (it.walk_before_s + it.transit.duration_s + it.walk_after_s
             + it.wait_s)
    assert total == pytest.approx(it.total_duration_s, abs=1e-6)
    assert it.end_time > it.start_time
    assert len(it.transit.geometry) >= 2


# --- stop lookup ---

GRID_M = [-600.0, 0.0, 600.0]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(GRID_M), st.sampled_from(GRID_M))
                | st.tuples(st.floats(-3000, 3000), st.floats(-3000, 3000)),
                min_size=3, max_size=25),
       st.tuples(st.floats(-3000, 3000), st.floats(-3000, 3000)),
       st.sampled_from([300.0, 1000.0, 2500.0]))
def test_stop_lookup_equals_brute_force_scan(offs, center_off, radius):
    # ids count down, so the stops come in reverse stop_id order; grid
    # offsets put several stops at one place; the trip calls at the first
    # two stops only, so the others have no stop times
    ids = [f"s{len(offs) - k:02d}" for k in range(len(offs))]
    stops = {sid: tuple(offset_point(BASE, *o)) for sid, o in zip(ids, offs)}
    bundle = make_bundle(stops, {"r1": ("16", 3)},
                         [("t1", "r1", [(ids[0], S9), (ids[1], S9 + 300)])])
    center = offset_point(BASE, *center_off)
    expected = sorted(
        ((stop, distance_m(center, stop.geo)) for stop in bundle.stops.values()
         if distance_m(center, stop.geo) <= radius),
        key=lambda item: (item[1], item[0].stop_id))
    got = TimetablePlanner(bundle, DAY, WALK_MPS).stops_within(center, radius)
    assert [stop.stop_id for stop, _ in got] == \
        [stop.stop_id for stop, _ in expected]
    for (_, d), (_, d_ref) in zip(got, expected):
        assert d == pytest.approx(d_ref, abs=1e-9)


def test_stop_lookup_orders_colocated_stops_by_id():
    a = grid_stop(0, 0)
    stops = {"B2": (a.lat, a.lng), "A": (a.lat, a.lng), "B1": (a.lat, a.lng),
             "C": tuple(grid_stop(0, 3000))}
    bundle = make_bundle(stops, {"r1": ("16", 3)},
                         [("t1", "r1", [("B2", S9), ("C", S9 + 300)])])
    planner = TimetablePlanner(bundle, DAY, WALK_MPS)
    center = offset_point(BASE, 100.0, 0.0)
    got = planner.stops_within(center, 1000.0)
    assert [stop.stop_id for stop, _ in got] == ["A", "B1", "B2"]
    [d] = {d for _, d in got}
    # the radius is closed
    assert len(planner.stops_within(center, d)) == 3
    assert planner.stops_within(center, math.nextafter(d, 0.0)) == []


def test_stop_without_stop_times_is_found_but_never_boarded():
    idle = grid_stop(5000, 0)  # no trip calls here
    planner = TimetablePlanner(simple_bundle(extra_stops={"Z": tuple(idle)}),
                               DAY, WALK_MPS)
    near_idle = offset_point(idle, 100.0, 0.0)
    assert [s.stop_id for s, _ in planner.stops_within(near_idle, 1000.0)] == ["Z"]
    start = datetime(2016, 8, 26, 9, 55)
    assert planner.plan(PlanQuery(near_idle, grid_stop(0, 3000), start,
                                  MAX_WALK_M)).reason == "no reachable trip serves the query"
    nowhere = grid_stop(20_000, 0)
    assert planner.plan(PlanQuery(nowhere, grid_stop(0, 3000), start,
                                  MAX_WALK_M)).reason == "no stops within 1000 m of origin"
    assert planner.plan(PlanQuery(grid_stop(0, 0), nowhere, start,
                                  MAX_WALK_M)).reason == "no stops within 1000 m of destination"


# --- adjusted_query ---

def test_adjusted_query_pulls_start_back_372s():
    seg = segment_of([fp(0, Activity.IN_VEHICLE,
                         lat=BASE.lat, lng=BASE.lng),
                      fp(600, Activity.IN_VEHICLE, lat=60.18, lng=24.95)])
    q = adjusted_query(seg, MatchConstants())
    assert q.earliest_start == seg.start_time - timedelta(seconds=372)
    assert q.max_walk_m == 1000.0
    assert q.n_plans == 3
    assert q.origin == (BASE.lat, BASE.lng)
    assert q.destination == (60.18, 24.95)


def test_adjusted_query_clock_example():
    from tripmatch.types import FilteredPoint

    start = datetime(2016, 8, 26, 10, 52, 30)
    seg = segment_of([
        FilteredPoint(start, 1, 60.17, 24.94, Activity.IN_VEHICLE),
        FilteredPoint(start + timedelta(seconds=600), 1, 60.18, 24.95,
                      Activity.IN_VEHICLE)])
    assert adjusted_query(seg, MatchConstants()).earliest_start == \
        datetime(2016, 8, 26, 10, 46, 18)


# --- brute-force equivalence oracle ---

def _trip_instances(bundle, day):
    """(trip_id, shift_s) -> the trip's stop times in sequence order: every
    trip running on day, and every trip of the day before with a time past
    24:00:00, whose times are shifted back one day."""
    by_trip = {}
    for st in bundle.stop_times:
        by_trip.setdefault(st.trip_id, []).append(st)
    for sts in by_trip.values():
        sts.sort(key=lambda st: st.sequence)
    instances = {(t, 0): by_trip.get(t, []) for t in bundle.trips_on(day)}
    for t in bundle.trips_on(day - timedelta(days=1)):
        if any(max(st.arrival_s or 0, st.departure_s or 0) >= 86400
               for st in by_trip.get(t, [])):
            instances[(t, -86400)] = by_trip[t]
    return instances


def oracle_plan(bundle, day, query, walk_speed=WALK_MPS,
                horizon_s=7200.0):
    """Independent exhaustive scan over all (board, alight, trip instance)
    triples."""
    midnight = datetime.combine(day, datetime.min.time())
    earliest = (query.earliest_start - midnight).total_seconds()
    best = {}
    for (trip_id, shift), sts in sorted(_trip_instances(bundle, day).items()):
        for i, st_b in enumerate(sts):
            if st_b.departure_s is None:
                continue
            dep = st_b.departure_s + shift
            d_b = distance_m(query.origin, bundle.stops[st_b.stop_id].geo)
            if d_b > query.max_walk_m:
                continue
            if dep < earliest + d_b / walk_speed:
                continue
            if dep > earliest + horizon_s:
                continue
            for st_a in sts[i + 1:]:
                if st_a.arrival_s is None:
                    continue
                arr = st_a.arrival_s + shift
                d_a = distance_m(query.destination,
                                 bundle.stops[st_a.stop_id].geo)
                if d_a > query.max_walk_m or d_b + d_a > query.max_walk_m:
                    continue
                end = arr + d_a / walk_speed
                duration = d_b / walk_speed + (arr - dep) + d_a / walk_speed
                key = (end, duration, d_b + d_a, st_b.stop_id, st_a.stop_id,
                       dep, st_b.sequence)
                value = (st_b.stop_id, st_a.stop_id, dep, arr, round(d_b, 6),
                         round(d_a, 6))
                if (trip_id, shift) not in best or key < best[(trip_id, shift)][0]:
                    best[(trip_id, shift)] = (key, value)
    ranked = sorted(best.items(), key=lambda kv: (kv[1][0][0], kv[1][0][1],
                                                  kv[0]))
    return [(trip_id, value)
            for (trip_id, _), (_, value) in ranked[:query.n_plans]]


def _itinerary_signature(it: Itinerary, day) -> tuple:
    midnight = datetime.combine(day, datetime.min.time())
    return (it.transit.board_stop, it.transit.alight_stop,
            (it.transit.board_time - midnight).total_seconds(),
            (it.transit.alight_time - midnight).total_seconds(),
            round(it.walk_before_s * WALK_MPS, 6),
            round(it.walk_after_s * WALK_MPS, 6))


def _plan_signatures(result) -> list[tuple]:
    return [(it.transit.trip_id, _itinerary_signature(it, DAY))
            for it in result.itineraries]


def _assert_oracle(got: list[tuple], expected: list[tuple]) -> None:
    assert [t for t, _ in got] == [t for t, _ in expected]
    for (_, sig), (_, v) in zip(got, expected):
        assert sig[:4] == (v[0], v[1], float(v[2]), float(v[3]))
        assert sig[4] == pytest.approx(v[4], abs=1e-4)
        assert sig[5] == pytest.approx(v[5], abs=1e-4)


def _random_feed(rng: random.Random, first_departure_s: int = S9):
    """The stops, routes and trips of a random feed: 1-5 straight routes of
    2-6 stops, each with 1-4 trips."""
    n_routes = rng.randint(1, 5)
    stops, routes, trips = {}, {}, []
    for r in range(n_routes):
        rid = f"r{r}"
        routes[rid] = (f"L{r}", rng.choice([0, 1, 2, 3]))
        n_stops = rng.randint(2, 6)
        sx, sy = rng.uniform(-2000, 2000), rng.uniform(-2000, 2000)
        heading = rng.uniform(0, 6.28)
        step = rng.uniform(300, 900)
        ids = []
        for k in range(n_stops):
            sid = f"s{r}_{k}"
            p = offset_point(BASE, sx + step * k * math.cos(heading),
                             sy + step * k * math.sin(heading))
            stops[sid] = (p.lat, p.lng)
            ids.append(sid)
        for t in range(rng.randint(1, 4)):
            dep = first_departure_s + rng.randrange(0, 5400, 60)
            hop = rng.randrange(60, 240, 30)
            trips.append((f"t{r}_{t}", rid,
                          [(sid, dep + k * hop) for k, sid in enumerate(ids)]))
    return stops, routes, trips


def _random_bundle(rng: random.Random, first_departure_s: int = S9):
    return make_bundle(*_random_feed(rng, first_departure_s))


#: gather limits of search: one pair per block, a few, and the default
_PAIR_LIMITS = st.sampled_from([1, 3, planner_module._MAX_PAIRS])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), _PAIR_LIMITS)
def test_planner_matches_brute_force_oracle(seed, max_pairs):
    rng = random.Random(seed)
    bundle = _random_bundle(rng)
    planner = TimetablePlanner(bundle, DAY, WALK_MPS)
    origin = offset_point(BASE, rng.uniform(-2500, 2500),
                          rng.uniform(-2500, 2500))
    dest = offset_point(BASE, rng.uniform(-2500, 2500),
                        rng.uniform(-2500, 2500))
    query = PlanQuery(origin, dest, at(rng.randrange(0, 3600, 30)),
                      max_walk_m=rng.choice([500.0, 1000.0, 1500.0]),
                      n_plans=rng.randint(1, 4))
    with mock.patch.object(planner_module, "_MAX_PAIRS", max_pairs):
        got = planner.plan(query)
    _assert_oracle(_plan_signatures(got), oracle_plan(bundle, DAY, query))


LATE_CALL = 23 * 3600 + 2400  # 23:40, a trip that runs past midnight


def _near_point(rng, bundle, stop_id):
    return offset_point(bundle.stops[stop_id].geo, rng.uniform(-300, 300),
                        rng.uniform(-300, 300))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000),
       st.sampled_from(["default", 0.0, 7200.0, 26 * 3600.0]), _PAIR_LIMITS)
def test_search_with_its_cut_equals_each_query_alone_and_the_oracle(
        seed, first_window_s, max_pairs):
    # a random feed, plus "down", whose stop times fall along its calls,
    # "up" over the same calls with rising times, and "night" past
    # midnight; down ends before up, but departs after the first window of
    # the pinned query, which up fills, so that a bound that is not a lower
    # bound of the end drops down there
    rng = random.Random(seed)
    stops, routes, trips = _random_feed(rng)
    calls = rng.sample(sorted(stops), rng.randint(2, min(4, len(stops))))
    down_s = S9 + rng.randrange(1800, 5400, 60)
    trips += [
        ("down", "r0", [(sid, down_s - 1200 * k) for k, sid in enumerate(calls)]),
        ("up", "r0", [(sid, down_s - 1000 + 300 * k)
                      for k, sid in enumerate(calls)]),
        ("night", "r0", [(sid, LATE_CALL + 600 * k)
                         for k, sid in enumerate(calls)])]
    bundle = make_bundle(stops, routes, trips)
    planner = TimetablePlanner(bundle, DAY, WALK_MPS)
    times = {}
    for row in bundle.stop_times:
        times.setdefault(row.trip_id, []).append((row.stop_id, row.arrival_s))
    queries = [PlanQuery(_near_point(rng, bundle, calls[0]),
                         _near_point(rng, bundle, calls[-1]),
                         at(down_s - 1400 - S9), MAX_WALK_M, n_plans=1)]
    for _ in range(rng.randint(1, 6)):
        trip = times[rng.choice(sorted(times))]
        i = rng.randrange(len(trip) - 1)
        (board, board_s), (alight, _) = trip[i], trip[rng.randrange(i + 1, len(trip))]
        start_s = board_s - rng.randrange(0, 3600, 30) - rng.choice([0, 86400])
        queries.append(PlanQuery(
            _near_point(rng, bundle, board), _near_point(rng, bundle, alight),
            at(start_s - S9), max_walk_m=rng.choice([500.0, 1000.0, 1500.0]),
            n_plans=rng.randint(1, 4)))
    rng.shuffle(queries)
    window = (planner_module._FIRST_WINDOW_S if first_window_s == "default"
              else first_window_s)
    with mock.patch.object(planner_module, "_FIRST_WINDOW_S", window), \
            mock.patch.object(planner_module, "_MAX_PAIRS", max_pairs):
        together = [planner.plan(q, picks)
                    for q, picks in zip(queries, planner.search(queries))]
    with mock.patch.object(planner_module, "_FIRST_WINDOW_S", window):
        alone = [planner.plan(q) for q in queries]
    for query, got, one in zip(queries, together, alone):
        assert (got.reason, _plan_signatures(got)) == (
            one.reason, _plan_signatures(one))
        _assert_oracle(_plan_signatures(got), oracle_plan(bundle, DAY, query))


def test_search_of_no_queries_is_empty():
    assert TimetablePlanner(simple_bundle(), DAY, WALK_MPS).search([]) == []


def test_tied_pairs_break_on_stop_ids_not_stop_codes():
    # the trips call s9 before s10 and s19 before s100, the reverse of
    # stop_id order, which stop codes follow; boarding at the co-located s9
    # or s10 and alighting at the co-located s19 or s100 tie on (end,
    # duration, walk), so the stop ids decide
    a, b = grid_stop(0, 0), grid_stop(0, 3000)
    stops = {sid: (p.lat, p.lng) for sid, p in
             (("s9", a), ("s10", a), ("s19", b), ("s100", b))}
    calls = [("s9", 36000), ("s10", 36000), ("s19", 36600), ("s100", 36600)]
    bundle = make_bundle(stops, {"r1": ("16", 3)},
                         [("t1", "r1", calls), ("t2", "r1", calls)])
    assert bundle.stop_times.stop_ids == tuple(sorted(stops)) == (
        "s10", "s100", "s19", "s9")
    query = PlanQuery(grid_stop(60, 0), grid_stop(-40, 3000),
                      datetime(2016, 8, 26, 9, 50), MAX_WALK_M)
    got = [(it.transit.trip_id, _itinerary_signature(it, DAY))
           for it in TimetablePlanner(bundle, DAY, WALK_MPS).plan(
               query).itineraries]
    expected = oracle_plan(bundle, DAY, query)
    assert [t for t, _ in got] == [t for t, _ in expected] == ["t1", "t2"]
    for (_, sig), (_, v) in zip(got, expected):
        assert sig[:2] == v[:2] == ("s10", "s100")
        assert sig[2:4] == (float(v[2]), float(v[3]))
        assert sig[4] == pytest.approx(v[4], abs=1e-4)
        assert sig[5] == pytest.approx(v[5], abs=1e-4)


def test_loaded_feed_codes_trips_by_row_and_stops_by_id(tmp_path):
    # stops.txt lists the stops out of id order, with Z called by no trip;
    # trips.txt lists t0, which has no stop times; stop_times.txt names the
    # stops in a third order (D, B, C, A)
    points = {sid: grid_stop(0, 1500 * k) for k, sid in enumerate("ABCD")}
    points["Z"] = grid_stop(200, 3000)
    calls = {"t1": 36000, "t2": 36120}
    rows = [("t2", "D", 4), ("t1", "B", 2), ("t1", "C", 3), ("t2", "A", 1),
            ("t1", "A", 1), ("t2", "B", 2), ("t1", "D", 4), ("t2", "C", 3)]
    clock = "{:02d}:{:02d}:00".format
    tables = {
        "stops.txt": ["stop_id,stop_name,stop_lat,stop_lon"] + [
            f"{sid},{sid},{points[sid].lat!r},{points[sid].lng!r}"
            for sid in "CADZB"],
        "routes.txt": ["route_id,route_short_name,route_type", "r1,16,3"],
        "trips.txt": ["trip_id,route_id,service_id", "t2,r1,all",
                      "t0,r1,all", "t1,r1,all"],
        "stop_times.txt": [
            "trip_id,stop_id,arrival_time,departure_time,stop_sequence"] + [
            f"{trip},{sid},{clock(*divmod(t // 60, 60))},"
            f"{clock(*divmod(t // 60, 60))},{seq}"
            for trip, sid, seq in rows
            for t in [calls[trip] + 300 * (seq - 1)]],
        "calendar.txt": [
            "service_id,monday,tuesday,wednesday,thursday,friday,saturday,"
            "sunday,start_date,end_date",
            "all,1,1,1,1,1,1,1,20160101,20161231"],
    }
    for name, lines in tables.items():
        (tmp_path / name).write_text("\n".join(lines) + "\n")
    bundle = load_gtfs(tmp_path)
    assert bundle.stop_times.trip_ids == bundle.trips.trip_ids == (
        "t0", "t1", "t2")
    assert bundle.stop_times.stop_ids == tuple(sorted(bundle.stops)) == (
        "A", "B", "C", "D", "Z")
    planner = TimetablePlanner(bundle, DAY, WALK_MPS)
    for origin, dest in (("A", "C"), ("B", "Z"), ("Z", "D")):
        query = PlanQuery(offset_point(points[origin], 50, 0), points[dest],
                          datetime(2016, 8, 26, 9, 50), MAX_WALK_M)
        got = [(it.transit.trip_id, _itinerary_signature(it, DAY))
               for it in planner.plan(query).itineraries]
        expected = oracle_plan(bundle, DAY, query)
        assert [t for t, _ in got] == [t for t, _ in expected] == ["t1", "t2"]
        for (_, sig), (_, v) in zip(got, expected):
            assert sig[:4] == (v[0], v[1], float(v[2]), float(v[3]))
            assert sig[4] == pytest.approx(v[4], abs=1e-4)
            assert sig[5] == pytest.approx(v[5], abs=1e-4)
    assert planner.departures("Z") == []
    assert [trip for _, trip, _ in planner.departures("B")] == ["t1", "t2"]


LATE = 23 * 3600 + 1800  # trips from 23:30 run past midnight


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), _PAIR_LIMITS)
def test_planner_matches_oracle_across_midnight(seed, max_pairs):
    # every trip also runs the day before, so the small hours of DAY hold
    # the day before's late runs; a search window over a day long reaches
    # both runs of one trip
    rng = random.Random(seed)
    bundle = _random_bundle(rng, first_departure_s=LATE)
    window = rng.choice([7200.0, 26 * 3600.0])
    planner = TimetablePlanner(bundle, DAY, WALK_MPS, search_window_s=window)
    # origin and destination near two calls of one trip, so that most
    # queries find a ride
    calls = {}
    for row in bundle.stop_times:
        calls.setdefault(row.trip_id, []).append(row.stop_id)
    stops = calls[rng.choice(sorted(calls))]
    i = rng.randrange(len(stops) - 1)
    near = [offset_point(bundle.stops[sid].geo, rng.uniform(-300, 300),
                         rng.uniform(-300, 300))
            for sid in (stops[i], stops[rng.randrange(i + 1, len(stops))])]
    midnight = datetime.combine(DAY, datetime.min.time())
    query = PlanQuery(near[0], near[1],
                      midnight + timedelta(seconds=rng.randrange(-3600, 3600, 30)),
                      max_walk_m=rng.choice([500.0, 1000.0, 1500.0]),
                      n_plans=rng.randint(1, 4))
    with mock.patch.object(planner_module, "_MAX_PAIRS", max_pairs):
        got = planner.plan(query)
    _assert_oracle(_plan_signatures(got),
                   oracle_plan(bundle, DAY, query, horizon_s=window))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([S9, LATE]))
def test_departures_per_stop_equal_sorted_brute_force(seed, first_departure_s):
    bundle = _random_bundle(random.Random(seed), first_departure_s)
    planner = TimetablePlanner(bundle, DAY, WALK_MPS)
    expected = {}
    for (trip_id, shift), sts in _trip_instances(bundle, DAY).items():
        for stop_time in sts:
            if stop_time.departure_s is not None:
                expected.setdefault(stop_time.stop_id, []).append(
                    (stop_time.departure_s + shift, trip_id, shift,
                     stop_time.sequence))
    for stop_id in bundle.stops:
        assert planner.departures(stop_id) == [
            (dep, trip_id, seq)
            for dep, trip_id, _, seq in sorted(expected.get(stop_id, []))]


def late_bundle(runs_on=None):
    """simple_bundle plus trip "late" at 24:10 (A), 24:15 (B), 24:20 (C),
    every day, or only on weekday runs_on (Monday = 0), as service "only"."""
    late = ("late", "r1", [("A", 87000), ("B", 87300), ("C", 87600)])
    if runs_on is None:
        return simple_bundle(extra_trips=[late])
    return simple_bundle(extra_trips=[(*late, "only")], services={
        "only": GtfsService("only", tuple(d == runs_on for d in range(7)),
                            date(2016, 1, 1), date(2016, 12, 31))})


MIDNIGHT = datetime.combine(DAY, datetime.min.time())  # Friday


def test_departures_are_in_stop_departure_instance_sequence_order():
    """The departure index is ordered as np.lexsort((sequence, instance,
    departure, stop)) orders it, over every timed call of every instance,
    the day before's run of "late" included."""
    planner = TimetablePlanner(late_bundle(), DAY, WALK_MPS)
    times = planner._st
    # "late" on Thursday and on Friday, then "t1000"
    assert [(times.trip_ids[t], shift) for t, shift in zip(
        planner._inst_trip, planner._inst_shift.tolist())] == [
        ("late", -86400), ("late", 0), ("t1000", 0)]
    rows = [np.arange(times.trip_rows[t], times.trip_rows[t + 1])
            for t in planner._inst_trip]
    inst = np.repeat(np.arange(len(rows)), list(map(len, rows)))
    rows = np.concatenate(rows)
    departure = times.departure_s[rows] + planner._inst_shift[inst]
    order = np.lexsort((times.sequence[rows], inst, departure, times.stop[rows]))
    assert planner._dep_inst.tolist() == inst[order].tolist()
    assert planner._dep_row.tolist() == rows[order].tolist()
    assert planner._dep_s.tolist() == departure[order].tolist()


def test_previous_day_trip_past_midnight_is_planned():
    # Thursday's 24:10 departure leaves at 00:10 on Friday
    query = PlanQuery(grid_stop(50, 0), grid_stop(0, 3000),
                      MIDNIGHT + timedelta(minutes=5), MAX_WALK_M)
    [it] = TimetablePlanner(late_bundle(runs_on=3), DAY,
                            WALK_MPS).plan(query).itineraries
    assert it.transit.trip_id == "late"
    assert it.transit.board_time == MIDNIGHT + timedelta(minutes=10)
    assert it.transit.alight_time == MIDNIGHT + timedelta(minutes=20)
    # a Friday-only run leaves at 00:10 on Saturday, out of the window
    friday = TimetablePlanner(late_bundle(runs_on=4), DAY,
                              WALK_MPS).plan(query)
    assert friday.itineraries == []


def test_two_runs_of_one_trip_are_planned_apart():
    planner = TimetablePlanner(late_bundle(), DAY, WALK_MPS,
                               search_window_s=2 * 86400.0)
    result = planner.plan(PlanQuery(grid_stop(50, 0), grid_stop(0, 3000),
                                    MIDNIGHT, MAX_WALK_M))
    assert [(it.transit.trip_id, it.transit.board_time)
            for it in result.itineraries] == [
        ("late", MIDNIGHT + timedelta(minutes=10)),
        ("t1000", MIDNIGHT + timedelta(hours=10)),
        ("late", MIDNIGHT + timedelta(days=1, minutes=10))]


def test_itinerary_invariants_enforced():
    leg = TransitLeg(LineType.BUS, "16", "t", "A",
                     datetime(2016, 8, 26, 9, 0), "B",
                     datetime(2016, 8, 26, 9, 30),
                     np.array([[60.17, 24.94], [60.18, 24.95]]))
    with pytest.raises(ValueError, match="boarding precedes"):
        Itinerary(start_time=datetime(2016, 8, 26, 9, 5),
                  end_time=datetime(2016, 8, 26, 9, 30),
                  walk_before_s=0.0, transit=leg, walk_after_s=0.0,
                  total_duration_s=1500.0)
    one_point_leg = TransitLeg(LineType.BUS, "16", "t", "A",
                               datetime(2016, 8, 26, 9, 0), "B",
                               datetime(2016, 8, 26, 9, 30),
                               np.array([[60.17, 24.94]]))
    with pytest.raises(ValueError, match="geometry"):
        Itinerary(start_time=datetime(2016, 8, 26, 9, 0),
                  end_time=datetime(2016, 8, 26, 9, 30),
                  walk_before_s=0.0, transit=one_point_leg,
                  walk_after_s=0.0, total_duration_s=1800.0)


# --- leg geometry against the former rule on GeoPoint tuples ---

def _tuple_dedupe(points):
    """The former _dedupe: each point unless it equals the last one kept."""
    out = []
    for p in points:
        if not out or p != out[-1]:
            out.append(p)
    return out


def _tuple_leg_geometry(stops, shape):
    """The former _leg_geometry, of the leg's stops and the trip's shape as
    GeoPoint lists (shape None for a trip without one)."""
    board_geo, alight_geo = stops[0], stops[-1]
    if shape:
        lat, lng = np.array(shape).T
        i = int(np.argmin(distances_m(lat, lng, *board_geo)))
        j = int(np.argmin(distances_m(lat, lng, *alight_geo)))
        if i < j:
            pts = _tuple_dedupe([board_geo, *shape[i:j + 1], alight_geo])
            if len(pts) >= 2:
                return tuple(pts)
    pts = _tuple_dedupe(stops)
    if len(pts) < 2:
        pts = [board_geo, alight_geo]  # co-located stops still form a leg
    return tuple(pts)


# a few points that repeat, the zeros of either sign among them, or any
# point of a small box
POINT = st.sampled_from([(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0),
                         (60.17, 24.94), (60.171, 24.94), (60.172, 24.941)]
                        ) | st.tuples(st.floats(60.16, 60.18), st.floats(24.93, 24.95))
A, B, C = (60.17, 24.94), (60.171, 24.94), (60.172, 24.941)


@settings(max_examples=150, deadline=None)
@given(st.lists(POINT, min_size=2, max_size=6),
       st.none() | st.lists(POINT, min_size=1, max_size=8))
@example([A, B, C], [C, B, A])  # the shape runs against the trip: i > j
@example([A, C], [B])  # one vertex: i == j
@example([A, A, A], None)  # co-located stops
@example([A, A, B, B, C], [A, A, B, B, B, C, C])  # repeated consecutive points
@example([(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0)],
         [(-0.0, 0.0), (0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)])
def test_leg_geometry_agrees_with_the_tuple_rule(stops, shape):
    """Every leg of a trip, its geometry as the (k, 2) float64 array of the
    former GeoPoint tuple, -0.0 and 0.0 told apart."""
    names = [f"S{k}" for k in range(len(stops))]
    bundle = make_bundle(dict(zip(names, stops)), {"r1": ("16", 3)},
                         [("t1", "r1", [(name, S9 + 60 * k)
                                        for k, name in enumerate(names)])],
                         shapes={"t1": shape} if shape else None)
    planner = TimetablePlanner(bundle, DAY, WALK_MPS)
    points = [GeoPoint(*p) for p in stops]
    for board in range(len(stops)):
        for alight in range(board + 1, len(stops)):
            got = planner._leg_geometry(0, board, alight)
            expected = _tuple_leg_geometry(
                points[board:alight + 1],
                [GeoPoint(*p) for p in shape] if shape else None)
            assert got.dtype == np.float64 and got.shape == (len(expected), 2)
            assert hex_points(got.tolist()) == hex_points(expected)


@settings(max_examples=200, deadline=None)
@given(st.lists(POINT, max_size=10))
def test_dedupe_agrees_with_the_tuple_rule(points):
    got = _dedupe(np.array(points, dtype=np.float64).reshape(-1, 2))
    assert hex_points(got.tolist()) == hex_points(
        _tuple_dedupe([GeoPoint(*p) for p in points]))
