"""Validate planner itineraries against a vehicular segment.

The planner is asked for walk - ride - walk plans between the segment's end
points, starting tWb earlier than the segment and walking at most 2 dEmax.
A plan of duration t with transit leg tPT survives four duration criteria
against the segment duration tV, each limit derived from the transition
slack dEmax, the walk speed vW, the minimum transit speed vPT and the
schedule deviation tEPT (see MatchConstants):

1. not too short: t - tV >= -tEPT;
2. not too long: t - tV <= tPTb + tPTe + tWb + tWe (18 min);
3. transit leg close to the segment: |tPT - tV| <= tPTb + tPTe (5.6 min);
4. boarding close to the segment start: |board - start| <= tPTb + tEPT
   (5.8 min);

where tWb = tWe = dEmax / vW (6.2 min) and tPTb = tPTe = dEmax / vPT
(2.8 min), rounded to a tenth of a minute. A route-geometry quorum follows;
among survivors the one boarding closest to the segment start wins.

plan_static prepares the segments of a stage together: one planner search
for all their queries, and one route pass that measures every plan passing
the duration criteria, of every segment, against that segment's thinned
trace in blocked kernel calls. match_static then assesses one segment from
its share, and prepares the segment alone when given none.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from datetime import timedelta
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .geodesy import (blocks, distances_m, points_to_polylines_m, ranges,
                      resample_min_spacing)
from .ingest import format_timestamp, write_csv
from .planner import Itinerary, JourneyPlanner, PlanQuery, PlanResult
from .types import (ActivitySegment, GeoPoint, LineType, MAX_SLACK_S,
                    seconds_between)


def _minute_rounded(seconds: float) -> float:
    """seconds rounded to a tenth of a minute, as the paper states limits."""
    return round(seconds / 60.0, 1) * 60.0


@dataclass(frozen=True)
class MatchConstants:
    """Thresholds for plan validation.

    Only the independent quantities are fields. The time limits follow from
    them, minute-rounded, in seconds and computed once per instance:

    * tWb = tWe = dEmax / vW (6.2 min = 372 s), the walk from a misplaced
      transition point; the query pulls its start back by tWb;
    * tPTb = tPTe = dEmax / vPT (2.8 min = 168 s), the ride to or from it;
    * |tPT - tV| <= tPTb + tPTe (5.6 min = 336 s), transit_delta_max_s;
    * t - tV <= tPTb + tPTe + tWb + tWe (18 min = 1080 s), total_delta_max_s;
    * |board - segment start| <= tPTb + tEPT (5.8 min = 348 s),
      start_diff_max_s.
    """

    dEmax_m: float = 500.0                # transition-point slack
    walk_speed_mps: float = 1.34          # vW
    transit_speed_mps: float = 3.0        # vPT, minimum assumed
    schedule_deviation_s: float = 180.0   # tEPT
    route_quorum: float = 0.70
    route_limit_m: float = 100.0
    max_adjacent_outside: int = 4
    resample_spacing_m: float = 100.0

    def __post_init__(self) -> None:
        numbers = ("dEmax_m", "walk_speed_mps", "transit_speed_mps",
                   "schedule_deviation_s", "route_quorum", "route_limit_m",
                   "resample_spacing_m")
        for name in numbers:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{name} must be a number, got {value!r}")
        for name in ("dEmax_m", "walk_speed_mps", "transit_speed_mps",
                     "route_limit_m", "resample_spacing_m"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value!r}")
        if not self.schedule_deviation_s >= 0:
            raise ValueError(f"schedule_deviation_s must be >= 0, "
                             f"got {self.schedule_deviation_s!r}")
        value = self.max_adjacent_outside
        if type(value) is not int or value < 0:
            raise ValueError(f"max_adjacent_outside must be an integer >= 0, "
                             f"got {value!r}")
        if not 0.0 < self.route_quorum <= 1.0:
            raise ValueError(f"route_quorum must be in (0, 1], "
                             f"got {self.route_quorum!r}")
        for name in numbers:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        # the query pulls its start back by tWb
        if not self.walk_before_max_s <= MAX_SLACK_S:
            raise ValueError(f"tWb = dEmax_m / walk_speed_mps must be at most "
                             f"{MAX_SLACK_S:.0f} s, got "
                             f"{self.walk_before_max_s!r}")

    @cached_property
    def walk_before_max_s(self) -> float:
        """tWb = dEmax / vW, minute-rounded."""
        return _minute_rounded(self.dEmax_m / self.walk_speed_mps)

    @cached_property
    def _transit_extra_max_s(self) -> float:
        """tPTb = tPTe = dEmax / vPT, minute-rounded."""
        return _minute_rounded(self.dEmax_m / self.transit_speed_mps)

    @cached_property
    def transit_delta_max_s(self) -> float:
        """tPTb + tPTe."""
        return self._transit_extra_max_s + self._transit_extra_max_s

    @cached_property
    def total_delta_max_s(self) -> float:
        """tPTb + tPTe + tWb + tWe."""
        return self.transit_delta_max_s + (self.walk_before_max_s
                                           + self.walk_before_max_s)

    @cached_property
    def start_diff_max_s(self) -> float:
        """tPTb + tEPT."""
        return self._transit_extra_max_s + self.schedule_deviation_s


class Verdict(str, enum.Enum):
    ACCEPT = "ACCEPT"
    TOTAL_TOO_SHORT = "TOTAL_TOO_SHORT"
    TOTAL_TOO_LONG = "TOTAL_TOO_LONG"
    TRANSIT_DURATION_MISMATCH = "TRANSIT_DURATION_MISMATCH"
    START_TIME_MISMATCH = "START_TIME_MISMATCH"
    ROUTE_QUORUM = "ROUTE_QUORUM"
    ROUTE_GAP_RUN = "ROUTE_GAP_RUN"


@dataclass
class PlanAssessment:
    itinerary: Itinerary
    segment_duration_s: float          # tV
    delta_total_s: float               # t - tV, signed
    delta_transit_s: float             # |tPT - tV|
    start_diff_s: float                # |board - segment start|
    route_match_fraction: Optional[float]
    max_adjacent_run_outside: Optional[int]
    verdict: Verdict

    @property
    def accepted(self) -> bool:
        return self.verdict is Verdict.ACCEPT


_MAX_PAIRS = 1 << 11    # per route-check kernel call: dense shapes are long

RouteCheck = tuple[float, int, bool]
#: (tV, t - tV, |tPT - tV|, |board - start|, first failed duration criterion)
Timing = tuple[float, float, float, float, Optional[Verdict]]


def _route_points(segment: ActivitySegment,
                  constants: MatchConstants) -> tuple[np.ndarray, np.ndarray]:
    """The segment trace thinned to >= resample_spacing_m, without the
    points within dEmax along-trace of either end (transition points are
    inaccurate) unless that leaves none."""
    lat, lng = resample_min_spacing(segment.trace.lats, segment.trace.lngs,
                                    constants.resample_spacing_m)
    # cumulative along-trace distance of each resampled point
    cumulative = np.cumsum(np.concatenate(
        [[0.0], distances_m(lat[:-1], lng[:-1], lat[1:], lng[1:])]))
    interior = ((cumulative >= constants.dEmax_m)
                & (cumulative[-1] - cumulative >= constants.dEmax_m))
    if interior.any():
        return lat[interior], lng[interior]
    return lat, lng


def route_pass(segments: Sequence[ActivitySegment],
               itineraries: Sequence[Sequence[Itinerary]],
               constants: MatchConstants) -> list[Optional[np.ndarray]]:
    """Per segment, whether each point of its thinned trace lies within
    route_limit_m of the geometry of each of its itineraries: a (plans,
    points) bool array, None for a segment without plans.

    Each (plan, point) pair of every segment is one polyline of the kernel,
    and the polylines of all segments go through it in one pass, in calls
    of at most _MAX_PAIRS (point, vertex) pairs, a polyline longer than
    that alone.
    """
    grids, lats, lngs, sizes, points, first_vertex, geometry = (
        [], [], [], [], [], [], [])
    n_points = n_vertices = 0
    for segment, plans in zip(segments, itineraries):
        if not plans:
            grids.append(None)
            continue
        lat, lng = _route_points(segment, constants)
        n = len(lat)
        grids.append((len(plans), n))
        lats.append(lat)
        lngs.append(lng)
        # polyline g of the segment pairs point g % n with the vertices of
        # plan g // n
        geometry += [it.transit.geometry for it in plans]
        m = np.array([len(it.transit.geometry) for it in plans])
        sizes.append(np.repeat(m, n))
        points.append(np.tile(np.arange(n_points, n_points + n), len(m)))
        first_vertex.append(np.repeat(np.cumsum(m) - m + n_vertices, n))
        n_points += n
        n_vertices += int(m.sum())
    if not geometry:
        return grids
    lat, lng = np.concatenate(lats), np.concatenate(lngs)
    vertices = np.concatenate(geometry)
    sizes, points, first_vertex = map(np.concatenate,
                                      (sizes, points, first_vertex))
    matched = np.empty(len(sizes), dtype=bool)
    for block in blocks(sizes, _MAX_PAIRS):
        vertex, starts = ranges(first_vertex[block], sizes[block])
        point = np.repeat(points[block], sizes[block])
        p_lat, p_lng = lat[point], lng[point]
        v_lat, v_lng = vertices[vertex, 0], vertices[vertex, 1]
        matched[block] = points_to_polylines_m(
            p_lat, p_lng, v_lat, v_lng, distances_m(p_lat, p_lng, v_lat, v_lng),
            starts) <= constants.route_limit_m
    out, at = [], 0
    for grid in grids:
        out.append(None if grid is None
                   else matched[at:at + grid[0] * grid[1]].reshape(grid))
        at += 0 if grid is None else grid[0] * grid[1]
    return out


def route_geometry_check(segment: ActivitySegment,
                         itineraries: Sequence[Itinerary],
                         constants: MatchConstants,
                         matched: Optional[np.ndarray] = None,
                         ) -> list[RouteCheck]:
    """Compare the segment trace against the geometry of each itinerary.

    matched is the segment's route_pass result for the itineraries, which
    is run here for the segment alone when not given. Returns (matched
    fraction, longest unmatched adjacent run, passed) per itinerary.
    """
    if not itineraries:
        return []
    if matched is None:
        [matched] = route_pass([segment], [itineraries], constants)
    n = matched.shape[1]
    fractions = (np.count_nonzero(matched, axis=1) / n).tolist()
    # the longest run of unmatched points lies between two matched ones,
    # with one matched point imagined before and after the trace
    bounded = np.ones((len(matched), n + 2), dtype=bool)
    bounded[:, 1:-1] = matched
    gaps = [int(np.diff(np.flatnonzero(row)).max()) - 1 for row in bounded]
    return [(fraction, gap, fraction >= constants.route_quorum
             and gap <= constants.max_adjacent_outside)
            for fraction, gap in zip(fractions, gaps)]


def _timing(itinerary: Itinerary, segment: ActivitySegment,
            constants: MatchConstants) -> Timing:
    """(tV, t - tV, |tPT - tV|, |board - start|) and the first of the four
    duration criteria the plan fails, None when it passes them all."""
    start = segment.start_time
    tV = seconds_between(start, segment.end_time)
    delta_total = itinerary.total_duration_s - tV
    delta_transit = abs(itinerary.transit.duration_s - tV)
    start_diff = abs((itinerary.transit.board_time - start).total_seconds())
    verdict = None
    if delta_total < -constants.schedule_deviation_s:
        verdict = Verdict.TOTAL_TOO_SHORT
    elif delta_total > constants.total_delta_max_s:
        verdict = Verdict.TOTAL_TOO_LONG
    elif delta_transit > constants.transit_delta_max_s:
        verdict = Verdict.TRANSIT_DURATION_MISMATCH
    elif start_diff > constants.start_diff_max_s:
        verdict = Verdict.START_TIME_MISMATCH
    return tV, delta_total, delta_transit, start_diff, verdict


def filter_plan(itinerary: Itinerary, segment: ActivitySegment,
                constants: MatchConstants, timing: Timing,
                route: Optional[RouteCheck]) -> PlanAssessment:
    """Assess one itinerary: the four duration criteria in order, then the
    route-geometry quorum. timing is the plan's _timing and route its
    route_geometry_check result, as assess_plans computes them; route is
    None only for a plan that fails a duration criterion."""
    tV, delta_total, delta_transit, start_diff, verdict = timing
    fraction: Optional[float] = None
    longest_gap: Optional[int] = None
    if verdict is None:
        fraction, longest_gap, geometry_ok = route
        if not geometry_ok:
            verdict = (Verdict.ROUTE_QUORUM if fraction < constants.route_quorum
                       else Verdict.ROUTE_GAP_RUN)
        else:
            verdict = Verdict.ACCEPT
    return PlanAssessment(
        itinerary=itinerary,
        segment_duration_s=tV,
        delta_total_s=delta_total,
        delta_transit_s=delta_transit,
        start_diff_s=start_diff,
        route_match_fraction=fraction,
        max_adjacent_run_outside=longest_gap,
        verdict=verdict,
    )


def assess_plans(itineraries: Sequence[Itinerary], segment: ActivitySegment,
                 constants: MatchConstants,
                 timings: Optional[Sequence[Timing]] = None,
                 matched: Optional[np.ndarray] = None) -> list[PlanAssessment]:
    """filter_plan of each itinerary, with the plans that pass the duration
    criteria route-checked together. timings holds each plan's _timing and
    matched the route_pass result of the timely plans, as plan_static finds
    them; each is found here when not given, the trace being thinned only
    when some plan reaches the route check."""
    if timings is None:
        timings = [_timing(it, segment, constants) for it in itineraries]
    timely = [k for k, timing in enumerate(timings) if timing[-1] is None]
    routes: list[Optional[RouteCheck]] = [None] * len(itineraries)
    if timely:
        checks = route_geometry_check(
            segment, [itineraries[k] for k in timely], constants, matched)
        for k, route in zip(timely, checks):
            routes[k] = route
    return [filter_plan(it, segment, constants, timing, route)
            for it, timing, route in zip(itineraries, timings, routes)]


@dataclass(frozen=True)
class StaticMatchResult:
    segment_id: int
    line_type: LineType
    line_name: str
    trip_id: str
    assessment: PlanAssessment


def adjusted_query(segment: ActivitySegment,
                   constants: MatchConstants) -> PlanQuery:
    """Planner query for a vehicular segment: endpoints become origin and
    destination, the earliest start is pulled back by tWb to let the
    traveller walk from a misdetected transition point to the boarding stop,
    and each walk may reach 2 dEmax."""
    trace = segment.trace
    return PlanQuery(
        origin=GeoPoint(float(trace.lats[0]), float(trace.lngs[0])),
        destination=GeoPoint(float(trace.lats[-1]), float(trace.lngs[-1])),
        earliest_start=segment.start_time - timedelta(
            seconds=constants.walk_before_max_s),
        max_walk_m=2 * constants.dEmax_m,
    )


@dataclass(frozen=True, eq=False)
class StaticCandidates:
    """What plan_static found for one segment."""
    planned: PlanResult
    timings: list[Timing]  # each plan's _timing, in planner order
    matched: Optional[np.ndarray]  # route_pass of the timely plans


def plan_static(segments: Sequence[ActivitySegment], planner: JourneyPlanner,
                constants: MatchConstants) -> list[StaticCandidates]:
    """The plans of each segment's adjusted query, their timings and the
    route pass of those that pass the duration criteria, in segment order:
    one search of the planner for all the queries, and one route pass for
    all the timely plans."""
    queries = [adjusted_query(s, constants) for s in segments]
    planned = [planner.plan(query, picks)
               for query, picks in zip(queries, planner.search(queries))]
    timings = [[_timing(it, s, constants) for it in result.itineraries]
               for s, result in zip(segments, planned)]
    timely = [[it for it, timing in zip(result.itineraries, plan_timings)
               if timing[-1] is None]
              for result, plan_timings in zip(planned, timings)]
    return list(map(StaticCandidates, planned, timings,
                    route_pass(segments, timely, constants)))


@dataclass(frozen=True)
class StaticDecision:
    """What match_static saw and decided for one segment."""
    reason: Optional[str]  # the planner's, when it found no plan
    assessments: list[PlanAssessment]  # one per plan, in planner order
    result: Optional[StaticMatchResult]


def match_static(segment: ActivitySegment, planner: JourneyPlanner,
                 constants: MatchConstants | None = None,
                 candidates: Optional[StaticCandidates] = None,
                 ) -> StaticDecision:
    """Assess every plan of the segment; the result is the winning accepted
    plan (closest boarding time; ties to smaller total-duration delta, then
    trip_id), None when no plan is accepted. candidates is the segment's
    plan_static result, found here when None."""
    constants = constants or MatchConstants()
    if candidates is None:
        candidates = plan_static([segment], planner, constants)[0]
    planned = candidates.planned
    assessed = assess_plans(planned.itineraries, segment, constants,
                            candidates.timings, candidates.matched)
    winner = min((a for a in assessed if a.accepted), default=None,
                 key=lambda a: (a.start_diff_s, abs(a.delta_total_s),
                                a.itinerary.transit.trip_id))
    result = None
    if winner is not None:
        leg = winner.itinerary.transit
        result = StaticMatchResult(segment.segment_id, leg.line_type,
                                   leg.line_name, leg.trip_id, winner)
    return StaticDecision(planned.reason, assessed, result)


ASSESSMENT_CSV_COLUMNS = [
    "segment_id", "trip_id", "line_type", "line_name", "verdict",
    "segment_duration_s", "total_duration_s", "transit_duration_s",
    "delta_total_s", "delta_transit_s", "start_diff_s",
    "route_match_fraction", "max_adjacent_run_outside",
    "board_time", "alight_time",
]


def write_assessments_csv(entries: Sequence[tuple[int, PlanAssessment]],
                          path) -> None:
    """One row per (segment, itinerary) for threshold calibration."""
    def row(segment_id: int, a: PlanAssessment) -> list:
        leg = a.itinerary.transit
        return [
            segment_id, leg.trip_id, leg.line_type.value, leg.line_name,
            a.verdict.value, f"{a.segment_duration_s:.1f}",
            f"{a.itinerary.total_duration_s:.1f}",
            f"{leg.duration_s:.1f}", f"{a.delta_total_s:.1f}",
            f"{a.delta_transit_s:.1f}", f"{a.start_diff_s:.1f}",
            "" if a.route_match_fraction is None
            else f"{a.route_match_fraction:.3f}",
            "" if a.max_adjacent_run_outside is None
            else a.max_adjacent_run_outside,
            format_timestamp(leg.board_time),
            format_timestamp(leg.alight_time),
        ]

    write_csv(path, ASSESSMENT_CSV_COLUMNS, (row(*entry) for entry in entries))
