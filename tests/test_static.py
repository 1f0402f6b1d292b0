import math
import random
from datetime import timedelta
from itertools import groupby
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tripmatch.geodesy import (
    distance_m,
    offset_point,
    point_to_linestring_m,
    points_to_polylines_m,
    resample_min_spacing,
)
from tripmatch import static
from tripmatch.config import ConfigError, config_from_dict
from tripmatch.planner import Itinerary, PlanResult, TransitLeg
from tripmatch.static import (
    MatchConstants,
    Verdict,
    assess_plans,
    match_static,
    route_geometry_check,
)
from tripmatch.types import Activity, GeoPoint, LineType

from conftest import at, fp, segment_of

CONSTANTS = MatchConstants()
BASE = GeoPoint(60.17, 24.94)


def geo_points(segment):
    return [GeoPoint(p.lat, p.lng) for p in segment.trace]


def straight_segment(length_m=3000.0, duration_s=600.0, n=31, east_m=0.0,
                     start_s=0.0):
    """IN_VEHICLE segment going due north from BASE."""
    pts = []
    for i in range(n):
        f = i / (n - 1)
        p = offset_point(BASE, east_m, f * length_m)
        pts.append(fp(start_s + f * duration_s, Activity.IN_VEHICLE,
                      lat=p.lat, lng=p.lng))
    return segment_of(pts)


def plan_for(segment, *, board_offset_s=0.0, total_s=None, transit_s=None,
             geometry=None, walk_split=0.5, trip_id="t1",
             line=(LineType.BUS, "16")):
    """Itinerary built around a segment with controllable deltas."""
    tV = segment.duration_s
    transit_s = tV if transit_s is None else transit_s
    total_s = transit_s if total_s is None else total_s
    walk_total = total_s - transit_s
    assert walk_total >= -1e-9, "total must cover the transit leg"
    walk_before = max(0.0, walk_total * walk_split)
    walk_after = max(0.0, walk_total - walk_before)
    board = segment.start_time + timedelta(seconds=board_offset_s)
    alight = board + timedelta(seconds=transit_s)
    if geometry is None:
        geometry = (geo_points(segment)[0], geo_points(segment)[-1])
    leg = TransitLeg(line[0], line[1], trip_id, "S1", board, "S2", alight,
                     np.array(geometry, dtype=np.float64).reshape(-1, 2))
    return Itinerary(start_time=board - timedelta(seconds=walk_before),
                     end_time=alight + timedelta(seconds=walk_after),
                     walk_before_s=walk_before,
                     transit=leg,
                     walk_after_s=walk_after,
                     total_duration_s=walk_before + transit_s + walk_after)


def test_constants_defaults_are_consistent():
    c = MatchConstants()
    assert c.walk_before_max_s == 372.0          # tWb, 6.2 min
    assert c.transit_delta_max_s == 336.0        # tPTb + tPTe, 5.6 min
    assert c.total_delta_max_s == 1080.0         # 18 min exactly closes
    assert c.start_diff_max_s == 348.0           # tPTb + tEPT, 5.8 min
    assert c.transit_delta_max_s + 2 * c.walk_before_max_s == c.total_delta_max_s


def test_derived_limits_follow_the_walk_speed():
    c = MatchConstants(walk_speed_mps=1.25)      # 400 s, 6.7 min
    assert c.walk_before_max_s == 402.0
    assert c.total_delta_max_s == 1140.0
    assert (c.transit_delta_max_s, c.start_diff_max_s) == (336.0, 348.0)


def test_inconsistent_constants_rejected():
    # a derived limit is not a key: it cannot be set out of line
    with pytest.raises(ConfigError,
                       match=r"static: unknown key\(s\) \['start_diff_max_s'\]"):
        config_from_dict({"static": {"start_diff_max_s": 350.0}})
    with pytest.raises(TypeError):
        MatchConstants(start_diff_max_s=350.0)


def test_clean_plan_accepted():
    segment = straight_segment()
    assessment = assess_plans([plan_for(segment)], segment, CONSTANTS)[0]
    assert assessment.verdict is Verdict.ACCEPT
    assert assessment.accepted


# threshold closure: one second inside passes, one second outside rejects,
# for every discard criterion
@pytest.mark.parametrize("kwargs,verdict", [
    (dict(total_s=600.0 - 179.0, transit_s=600.0 - 179.0), Verdict.ACCEPT),
    (dict(total_s=600.0 - 180.0, transit_s=600.0 - 180.0),
     Verdict.ACCEPT),  # boundary: not "more than"
    (dict(total_s=600.0 - 181.0, transit_s=600.0 - 181.0),
     Verdict.TOTAL_TOO_SHORT),
    (dict(total_s=600.0 + 1079.0), Verdict.ACCEPT),
    (dict(total_s=600.0 + 1080.0), Verdict.ACCEPT),
    (dict(total_s=600.0 + 1081.0), Verdict.TOTAL_TOO_LONG),
    (dict(transit_s=600.0 + 335.0, total_s=600.0 + 335.0), Verdict.ACCEPT),
    (dict(transit_s=600.0 + 337.0, total_s=600.0 + 337.0),
     Verdict.TRANSIT_DURATION_MISMATCH),
    (dict(transit_s=600.0 - 335.0, total_s=600.0 - 335.0 + 300.0),
     Verdict.ACCEPT),
    (dict(transit_s=600.0 - 337.0, total_s=600.0 - 337.0 + 300.0),
     Verdict.TRANSIT_DURATION_MISMATCH),
    (dict(board_offset_s=347.0), Verdict.ACCEPT),
    (dict(board_offset_s=349.0), Verdict.START_TIME_MISMATCH),
    (dict(board_offset_s=-347.0), Verdict.ACCEPT),
    (dict(board_offset_s=-349.0), Verdict.START_TIME_MISMATCH),
])
def test_duration_threshold_closure(kwargs, verdict):
    segment = straight_segment(duration_s=600.0)
    assessment = assess_plans([plan_for(segment, **kwargs)], segment, CONSTANTS)[0]
    assert assessment.verdict is verdict


def test_transit_duration_example_from_formula():
    # tV = 600, tPT = 950 -> |950-600| = 350 > 336 -> reject
    segment = straight_segment(duration_s=600.0)
    it = plan_for(segment, transit_s=950.0, total_s=950.0)
    assessment = assess_plans([it], segment, CONSTANTS)[0]
    assert assessment.verdict is Verdict.TRANSIT_DURATION_MISMATCH
    assert assessment.delta_transit_s == pytest.approx(350.0)


def test_short_plan_example():
    # tV = 600, t = 400 -> 400 < 600 - 180 -> reject (a)
    segment = straight_segment(duration_s=600.0)
    it = plan_for(segment, transit_s=400.0, total_s=400.0)
    assessment = assess_plans([it], segment, CONSTANTS)[0]
    assert assessment.verdict is Verdict.TOTAL_TOO_SHORT


# --- route geometry ---

def test_identical_geometry_passes_fully():
    segment = straight_segment()
    [(fraction, run, ok)] = route_geometry_check(
        segment, [plan_for(segment)], CONSTANTS)
    assert fraction == 1.0
    assert run == 0
    assert ok


def test_quorum_boundary_7_of_10():
    # seven interior samples on the line, three isolated 150 m misses
    fraction, run, ok = _run_with_miss_pattern(miss_idx={2, 5, 8}, n_samples=10)
    assert fraction == pytest.approx(0.70)
    assert run == 1
    assert ok


def test_gap_run_of_five_fails_even_at_good_fraction():
    fraction, run, ok = _run_with_miss_pattern(miss_idx={3, 4, 5, 6, 7},
                                               n_samples=20)
    assert fraction >= 0.70
    assert run == 5
    assert not ok


def test_gap_run_of_four_passes():
    fraction, run, ok = _run_with_miss_pattern(miss_idx={3, 4, 5, 6},
                                               n_samples=20)
    assert run == 4
    assert ok


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 20).flatmap(
    lambda n: st.tuples(st.just(n), st.sets(st.integers(0, n - 1)))))
def test_fraction_and_gap_run_count_the_misses(pattern):
    # runs of misses at either end of the interior count like inner ones
    n_samples, miss_idx = pattern
    fraction, run, _ = _run_with_miss_pattern(miss_idx, n_samples)
    missed = [i in miss_idx for i in range(n_samples)]
    assert fraction == (n_samples - len(miss_idx)) / n_samples
    assert run == max((len(list(g)) for miss, g in groupby(missed) if miss),
                      default=0)


def reference_route_check(segment, geometry, constants=CONSTANTS):
    """The route check as a scalar loop: the along-trace distance summed
    point by point and point_to_linestring_m for each interior point.
    Returns the check's result, the sums and the distances."""
    lats, lngs = resample_min_spacing(segment.trace.lats, segment.trace.lngs,
                                      constants.resample_spacing_m)
    samples = list(zip(lats.tolist(), lngs.tolist()))
    cumulative = [0.0]
    for a, b in zip(samples, samples[1:]):
        cumulative.append(cumulative[-1] + distance_m(a, b))
    total = cumulative[-1]
    interior = [p for p, c in zip(samples, cumulative)
                if c >= constants.dEmax_m and total - c >= constants.dEmax_m]
    distances = [point_to_linestring_m(p, geometry)
                 for p in interior or samples]
    flags = [d <= constants.route_limit_m for d in distances]
    longest = run = 0
    for ok in flags:
        run = 0 if ok else run + 1
        longest = max(longest, run)
    fraction = sum(flags) / len(flags)
    passed = (fraction >= constants.route_quorum
              and longest <= constants.max_adjacent_outside)
    sums = cumulative + [total - c for c in cumulative]
    return (fraction, longest, passed), sums, distances


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.floats(-300, 300), st.floats(-300, 300)),
                min_size=1, max_size=40),
       st.integers(1, 6),
       st.lists(st.tuples(st.floats(-150, 150), st.floats(-150, 150)),
                min_size=2, max_size=40))
def test_route_check_equals_scalar_reference(steps, every, shifts):
    # a random-walk trace, and a plan geometry through every few of its
    # points, each shifted by up to ~200 m
    offs = [(0.0, 0.0)]
    for de, dn in steps:
        offs.append((offs[-1][0] + de, offs[-1][1] + dn))
    pts = [offset_point(BASE, e, n) for e, n in offs]
    segment = segment_of([fp(10.0 * i, Activity.IN_VEHICLE, lat=p.lat, lng=p.lng)
                          for i, p in enumerate(pts)])
    geometry = [offset_point(p, *shift)
                for p, shift in zip(pts[::every], shifts)]
    assume(len(geometry) >= 2)
    expected, sums, distances = reference_route_check(segment, geometry)
    # array and scalar distances may differ in the last bits, which can
    # only matter next to a threshold
    assume(all(abs(c - CONSTANTS.dEmax_m) > 1e-6 for c in sums))
    assume(all(abs(d - CONSTANTS.route_limit_m) > 1e-6 for d in distances))
    assert route_geometry_check(segment, [plan_for(segment, geometry=geometry)],
                                CONSTANTS) == [expected]


def test_dense_geometry_is_checked_in_bounded_blocks():
    # a 1500-vertex shape winding up to 130 m either side of the trace: the
    # pairs of all interior points exceed the bound, so the check runs in
    # blocks, and still equals the scalar reference
    segment = straight_segment(length_m=12000.0, duration_s=1200.0, n=61)
    geometry = [offset_point(BASE, 130.0 * math.sin(k / 35.0), 8.0 * k)
                for k in range(1500)]
    expected, _, distances = reference_route_check(segment, geometry)
    assert len(distances) * len(geometry) > static._MAX_PAIRS
    assert min(abs(d - CONSTANTS.route_limit_m) for d in distances) > 1e-6
    assert 0.0 < expected[0] < 1.0
    with mock.patch.object(static, "points_to_polylines_m",
                           wraps=points_to_polylines_m) as kernel:
        got = route_geometry_check(segment, [plan_for(segment, geometry=geometry)],
                                   CONSTANTS)
    assert got == [expected]
    assert kernel.call_count > 1
    assert all(len(call.args[0]) <= static._MAX_PAIRS
               for call in kernel.call_args_list)


def _run_with_miss_pattern(miss_idx, n_samples):
    """The plan is a straight meridian line; the trace runs along it with its
    three lead and three trail points on the line (they fall inside the
    500 m ignore margins) and each missed interior sample pushed 150 m east,
    i.e. cleanly outside the 100 m limit."""
    step = 200.0
    span = step * (n_samples - 1)
    trace_offsets = [(-600.0, 0.0), (-400.0, 0.0), (-200.0, 0.0)]
    trace_offsets += [(step * i, 150.0 if i in miss_idx else 0.0)
                      for i in range(n_samples)]
    trace_offsets += [(span + 200.0, 0.0), (span + 400.0, 0.0),
                      (span + 600.0, 0.0)]
    pts = [fp(10.0 * i, Activity.IN_VEHICLE,
              lat=offset_point(BASE, east, north).lat,
              lng=offset_point(BASE, east, north).lng)
           for i, (north, east) in enumerate(trace_offsets)]
    segment = segment_of(pts)
    geometry = [offset_point(BASE, 0.0, -700.0),
                offset_point(BASE, 0.0, span + 700.0)]
    [got] = route_geometry_check(segment, [plan_for(segment, geometry=geometry)],
                                 CONSTANTS)
    return got


def test_geometry_check_invariant_under_reversal():
    segment = straight_segment(length_m=2500.0, n=26)
    geometry = [offset_point(p, 30.0, 0.0) for p in geo_points(segment)[::3]]
    fwd = route_geometry_check(segment, [plan_for(segment, geometry=geometry)],
                               CONSTANTS)
    rev = route_geometry_check(segment,
                               [plan_for(segment, geometry=geometry[::-1])],
                               CONSTANTS)
    assert fwd == rev


def test_short_trace_falls_back_to_all_samples():
    segment = straight_segment(length_m=600.0, duration_s=200.0, n=7)
    [(fraction, run, ok)] = route_geometry_check(
        segment, [plan_for(segment)], CONSTANTS)
    assert ok
    assert fraction == 1.0


# --- match_static ---

class FixedPlanner:
    def __init__(self, itineraries, reason=None):
        self.itineraries = itineraries
        self.reason = reason
        self.queries = []

    def search(self, queries):
        return [None] * len(queries)

    def plan(self, query, picks=None):
        self.queries.append(query)
        return PlanResult(list(self.itineraries), self.reason)


def test_match_static_picks_closest_start_among_accepts():
    segment = straight_segment(duration_s=600.0)
    near = plan_for(segment, board_offset_s=30.0, trip_id="near",
                    line=(LineType.TRAM, "7"))
    nearer = plan_for(segment, board_offset_s=-10.0, trip_id="nearer",
                      line=(LineType.BUS, "16"))
    rejected = plan_for(segment, total_s=600.0 + 2000.0, trip_id="late")
    result = match_static(segment, FixedPlanner([near, rejected, nearer]),
                          CONSTANTS).result
    assert result is not None
    assert result.trip_id == "nearer"
    assert result.line_type is LineType.BUS
    assert result.assessment.start_diff_s == pytest.approx(10.0)


def test_match_static_none_when_all_rejected():
    segment = straight_segment(duration_s=600.0)
    bad = plan_for(segment, total_s=600.0 + 2000.0)
    decision = match_static(segment, FixedPlanner([bad]), CONSTANTS)
    assert decision.result is None
    assert [a.verdict for a in decision.assessments] == [Verdict.TOTAL_TOO_LONG]


def test_match_static_winner_stable_under_permutation():
    segment = straight_segment(duration_s=600.0)
    plans = [plan_for(segment, board_offset_s=o, trip_id=f"t{o}")
             for o in (40.0, -40.0, 90.0)]
    rng = random.Random(1)
    winners = set()
    for _ in range(6):
        rng.shuffle(plans)
        winners.add(match_static(segment, FixedPlanner(plans),
                                 CONSTANTS).result.trip_id)
    assert len(winners) == 1


def test_match_static_uses_adjusted_query():
    segment = straight_segment(duration_s=600.0)
    planner = FixedPlanner([plan_for(segment)])
    match_static(segment, planner, CONSTANTS)
    [query] = planner.queries
    assert query.earliest_start == segment.start_time - timedelta(seconds=372)
    assert query.max_walk_m == 1000.0
    assert query.n_plans == 3


def test_match_static_returns_every_assessment():
    segment = straight_segment(duration_s=600.0)
    plans = [plan_for(segment, trip_id="a"),
             plan_for(segment, total_s=600.0 + 2000.0, trip_id="b")]
    decision = match_static(segment, FixedPlanner(plans), CONSTANTS)
    assert [a.itinerary.transit.trip_id for a in decision.assessments] == [
        "a", "b"]
    assert decision.assessments == assess_plans(plans, segment, CONSTANTS)
    assert decision.result.assessment is decision.assessments[0]
    assert decision.reason is None


def test_match_static_returns_the_planners_reason():
    segment = straight_segment(duration_s=600.0)
    reason = "no reachable trip serves the query"
    decision = match_static(segment, FixedPlanner([], reason), CONSTANTS)
    assert (decision.reason, decision.assessments, decision.result) == (
        reason, [], None)


def test_each_plan_is_timed_once():
    segment = straight_segment(duration_s=600.0)
    plans = [plan_for(segment, trip_id="a"),
             plan_for(segment, total_s=600.0 + 2000.0, trip_id="b")]
    with mock.patch.object(static, "_timing", wraps=static._timing) as timing:
        verdicts = [a.verdict for a in assess_plans(plans, segment, CONSTANTS)]
    assert verdicts == [Verdict.ACCEPT, Verdict.TOTAL_TOO_LONG]
    assert timing.call_count == len(plans)
