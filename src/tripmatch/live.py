"""Identify the ridden vehicle from sampled fleet positions.

The current method compares user samples against short vehicle linestrings
collected in a closed +/-60 s window around each sample; the prior baseline
("old live") used four user samples and raw point-to-point distances, which
starts missing once vehicles move fast enough to put 30 s fixes further than
two distance limits apart (~24 km/h).

A segment's samples are split into runs of consecutive samples, each one
sample longer than the misses the quorum allows, so a vehicle that misses
every sample of one run is below quorum. A vehicle in the segment's time
range whose fix box over a run's windows lies beyond twice the distance
limit of that run's samples misses all of them. prune_live drops every
vehicle with too many such misses, for all the segments of a stage and
both live methods at once. Both methods keep a segment's first and last
point, so one in-range query per segment and one pass over every
(segment, vehicle in range) pair's fix box over the segment's whole sample
window, which holds the box of each run, serve them both. Each method
tests the pairs with those boxes in array passes, and then, for the few
that pass, with their fix boxes over each of its runs. Each method then
scores its survivors in one pass: score_vehicle takes every
(segment, survivor) pair at once and marks each eligible at the quorum;
the best eligible score of a segment names its vehicle. decide_live
returns all of this, so that a diagnostic shows what the matcher saw and
decided.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from typing import Optional, Sequence

import numpy as np

from .geodesy import (EARTH_RADIUS_M, blocks, distances_m, points_to_polylines_m,
                      ranges)
from .types import (
    ActivitySegment,
    FleetColumns,
    LINE_TYPES,
    LineType,
    MAX_SLACK_S,
    TraceColumns,
    as_seconds,
    check_number,
)

NEW_LIVE = "new-live"
OLD_LIVE = "old-live"

_MAX_ROWS = 1 << 15  # index rows gathered per box block
# (sample, fix) rows measured per scoring block: a scored row holds about
# eight times the arrays of a box row
_MAX_SCORED_ROWS = _MAX_ROWS // 8
_MAX_PAIRS = 1 << 10  # (segment, vehicle) pairs per whole-window prune block


@dataclass(frozen=True)
class LiveMatchConfig:
    max_user_samples: int = 40
    distance_limit_m: float = 100.0
    window_s: float = 60.0
    quorum_fraction: float = 0.75
    old_live_samples: int = 4

    def __post_init__(self) -> None:
        # a match needs two samples, and select_user_samples spreads them
        # over max_samples - 1 gaps
        for name in ("max_user_samples", "old_live_samples"):
            check_number(name, getattr(self, name), integer=True, at_least=2)
        for name in ("distance_limit_m", "window_s"):
            check_number(name, getattr(self, name), positive=True)
        check_number("window_s", self.window_s, at_most=MAX_SLACK_S, unit=" s")
        check_number("quorum_fraction", self.quorum_fraction, positive=True,
                     at_most=1)


class PositionIndex:
    """Immutable fleet-position index: every row sorted by (vehicle, time),
    vehicles in vehicle_ref order. Rows with equal (vehicle, time) keep input
    order. Row i is on line names[line_name[i]] of type
    LINE_TYPES[line_type[i]], names being distinct. A by-time permutation,
    rows of an equal time in input order, answers time-range queries; an
    integer (vehicle, time) key answers window queries of many vehicles at
    once."""

    def __init__(self, fleet: FleetColumns):
        by_ref = sorted(range(len(fleet.refs)), key=fleet.refs.__getitem__)
        slot_of = np.empty(len(by_ref), np.int32)
        slot_of[by_ref] = np.arange(len(by_ref), dtype=np.int32)
        vehicle = slot_of[fleet.vehicle_ref]
        # index row i is row by_vehicle[i] of the fleet's time order. Each
        # transient array is let go once used and the columns are gathered
        # last, so that few arrays of a row each are alive at once
        by_time, by_vehicle = fleet.time_sorts(vehicle)
        n = len(by_time)
        # (vehicle, time) as one exact, ascending integer key: a time is
        # replaced by the number of fixes earlier than it, the position of
        # its first fix in time order
        self._stride = n + 1
        self._key = _time_ranks(fleet.times_s[by_time])[by_vehicle]
        order = by_time[by_vehicle]
        del by_time
        self._key += np.multiply(vehicle[order], self._stride, dtype=np.int64)
        del vehicle
        self._by_time = np.empty(n, np.intp)
        self._by_time[by_vehicle] = np.arange(n)
        del by_vehicle
        self.vehicle_refs = [fleet.refs[i] for i in by_ref]
        # slot(ref): the vehicle's position in vehicle_refs; None for an
        # unknown vehicle. A dict's own get, as prune_live calls it per pair
        self.slot = {ref: i for i, ref in enumerate(self.vehicle_refs)}.get
        self.times_s = fleet.times_s[order]
        self.lats = fleet.lats[order]
        self.lngs = fleet.lngs[order]
        self.line_type = fleet.line_type[order]
        self.line_name = fleet.line_name[order]
        self.names = fleet.names

    def _fixes_before(self, t_s, side: str) -> np.ndarray:
        """Number of fixes earlier than t_s (side "left") or at most t_s
        (side "right")."""
        return np.searchsorted(self.times_s, t_s, side=side, sorter=self._by_time)

    def __len__(self) -> int:
        return len(self.vehicle_refs)

    def vehicles_in_range(self, t0_s: float, t1_s: float) -> list[str]:
        """Vehicles with a fix in the closed window [t0_s, t1_s], in ref order."""
        lo = self._fixes_before(t0_s, "left")
        hi = self._fixes_before(t1_s, "right")
        present = np.zeros(len(self), dtype=bool)
        present[self._key[self._by_time[lo:hi]] // self._stride] = True
        return [self.vehicle_refs[v] for v in np.flatnonzero(present).tolist()]

    def window_rows(self, slots: np.ndarray, t0_s: np.ndarray,
                    t1_s: np.ndarray, window: np.ndarray,
                    ) -> tuple[np.ndarray, np.ndarray]:
        """Rows lo[i]:hi[i] are vehicle slots[i]'s fixes with t0_s[w] <=
        time <= t1_s[w], w = window[i], time-sorted; slot -1, whose keys
        precede every row's, has none. The comparisons are exact: a fix is
        at or after t0 iff no fewer fixes are earlier than it than are
        earlier than t0, and at or before t1 iff fewer fixes are earlier
        than it than are at or before t1."""
        base = np.asarray(slots, dtype=np.int64) * self._stride
        keys = np.concatenate([base + self._fixes_before(t0_s, "left")[window],
                               base + self._fixes_before(t1_s, "right")[window]])
        # numpy searches ascending keys about twice as fast
        order = np.argsort(keys)
        bounds = np.empty(len(keys), np.intp)
        bounds[order] = np.searchsorted(self._key, keys[order])
        return bounds[:len(keys) // 2], bounds[len(keys) // 2:]

    def boxes_in_range(self, slots: np.ndarray, t0_s: np.ndarray,
                       t1_s: np.ndarray, window: np.ndarray) -> np.ndarray:
        """(min_lat, min_lng, max_lat, max_lng) of the rows of window_rows,
        shape (len(slots), 4). A window without a fix has the empty box
        (inf, inf, -inf, -inf), which overlaps no box. Every window's
        polyline lies inside its box. The rows are gathered in blocks of at
        most _MAX_ROWS, a longer window alone."""
        lo, hi = self.window_rows(slots, t0_s, t1_s, window)
        boxes = np.empty((len(lo), 4))
        boxes[:, :2], boxes[:, 2:] = np.inf, -np.inf
        full = np.flatnonzero(hi > lo)
        counts = (hi - lo)[full]
        for block in blocks(counts, _MAX_ROWS):
            rows, starts = ranges(lo[full[block]], counts[block])
            lats, lngs = self.lats[rows], self.lngs[rows]
            boxes[full[block]] = np.column_stack([np.minimum.reduceat(lats, starts),
                                                  np.minimum.reduceat(lngs, starts),
                                                  np.maximum.reduceat(lats, starts),
                                                  np.maximum.reduceat(lngs, starts)])
        return boxes


def _time_ranks(sorted_s: np.ndarray) -> np.ndarray:
    """For each of the ascending times sorted_s, the position of the first
    equal one: the running maximum of the positions that start a time."""
    ranks = np.arange(len(sorted_s))
    ranks[1:][sorted_s[1:] == sorted_s[:-1]] = 0
    return np.maximum.accumulate(ranks, out=ranks)


def select_user_samples(trace: TraceColumns, max_samples: int) -> TraceColumns:
    """At most max_samples points spread evenly by index, always keeping the
    first and last point: rows round(i * last / (max_samples - 1))."""
    n = len(trace)
    if n <= max_samples:
        return trace
    rows = np.arange(max_samples) * (n - 1) / (max_samples - 1)
    return trace[np.rint(rows).astype(np.int64)]


@dataclass(eq=False)
class VehicleScore:
    vehicle_ref: str
    score: float
    matched_fraction: float
    distances: np.ndarray  # float64 per sample, NaN for an empty window
    votes: np.ndarray  # index row of each matched sample's nearest fix
    eligible: bool  # at the quorum with a positive score: it may be matched


def score_vehicle(samples: TraceColumns, sizes: Sequence[int],
                  vehicle_refs: Sequence[str], cfg: LiveMatchConfig,
                  index: PositionIndex, use_linestring: bool = True,
                  ) -> list[Optional[VehicleScore]]:
    """Score each (samples, vehicle) pair: pair k is vehicle_refs[k]
    against the next sizes[k] rows of samples, the pairs' samples stacked
    in pair order.

    A sample's window holds its vehicle's fixes in the closed window of
    cfg.window_s around it. One window_rows call finds every window, and
    every (window, fix) row is measured in array passes over blocks of
    whole pairs of at most _MAX_SCORED_ROWS rows, a larger pair alone. A
    sample matches when its window is non-empty and the window's polyline
    (use_linestring) or nearest fix lies within the distance limit;
    samples with empty windows stay in the quorum denominator. A pair's
    result is None for an unknown vehicle or when no sample matches;
    otherwise its score, eligible when the matched fraction reaches the
    quorum and the score is positive.

    Each pair's score is summed in sample order and each matched sample
    votes for its first nearest fix, in sample order, as a per-sample loop
    would.
    """
    sizes = np.asarray(sizes, dtype=np.intp)
    ends = np.cumsum(sizes)
    first = ends - sizes
    # an unknown vehicle takes slot -1, whose every window is empty
    slots = np.array([-1 if (slot := index.slot(ref)) is None else slot
                      for ref in vehicle_refs], dtype=np.int64)
    pair = np.repeat(np.arange(len(sizes)), sizes)
    lo, hi = index.window_rows(slots[pair], samples.times_s - cfg.window_s,
                               samples.times_s + cfg.window_s, slice(None))
    counts = hi - lo
    distances = np.full(len(samples), np.nan)
    vote = np.zeros(len(samples), np.intp)  # each window's first nearest fix
    # the rows of the windows before each sample
    rows_to = np.concatenate([[0], np.cumsum(counts)])
    for block in blocks(rows_to[ends] - rows_to[first], _MAX_SCORED_ROWS):
        a, b = first[block.start], ends[block.stop - 1]
        windowed = a + np.flatnonzero(counts[a:b])
        if not len(windowed):
            continue
        row, starts = ranges(lo[windowed], counts[windowed])
        window = np.repeat(windowed, counts[windowed])
        p_lat, p_lng = samples.lats[window], samples.lngs[window]
        lats, lngs = index.lats[row], index.lngs[row]
        d_point = distances_m(p_lat, p_lng, lats, lngs)
        nearest = np.minimum.reduceat(d_point, starts)
        distances[windowed] = (
            points_to_polylines_m(p_lat, p_lng, lats, lngs, d_point, starts)
            if use_linestring else nearest)
        hits = np.flatnonzero(d_point == np.repeat(nearest, counts[windowed]))
        hit_window = window[hits]
        first_hit = np.ones(len(hits), dtype=bool)
        first_hit[1:] = hit_window[1:] != hit_window[:-1]
        vote[windowed] = row[hits[first_hit]]

    matched = distances <= cfg.distance_limit_m
    matched_to = np.concatenate([[0], np.cumsum(matched)])
    n_matched = matched_to[ends] - matched_to[first]
    # each pair's terms in sample order, then zeros; adding the columns in
    # order sums each row as cumsum would
    terms = np.zeros((len(sizes), n_matched.max(initial=0)))
    at = np.flatnonzero(matched)
    terms[pair[at], matched_to[at] - matched_to[first[pair[at]]]] = \
        cfg.distance_limit_m - distances[at]
    scores = np.zeros(len(sizes))
    for column in terms.T:
        scores += column
    out: list[Optional[VehicleScore]] = [None] * len(sizes)
    for k in np.flatnonzero(n_matched).tolist():
        a, b = int(first[k]), int(ends[k])
        fraction = int(n_matched[k]) / (b - a)
        score = float(scores[k])
        out[k] = VehicleScore(
            vehicle_refs[k], score, fraction, distances[a:b],
            vote[a:b][matched[a:b]],
            not (fraction < cfg.quorum_fraction or score <= 0.0))
    return out


@dataclass(frozen=True)
class LiveMatchResult:
    segment_id: int
    method: str
    vehicle_ref: str
    line_type: LineType
    line_name: str
    score: float
    matched_fraction: float


def _run_boxes(lats: np.ndarray, lngs: np.ndarray, starts: np.ndarray,
               margin_m: float) -> tuple[np.ndarray, np.ndarray]:
    """The box of each run of samples starts[k]:starts[k + 1], the last run
    ending at the end, widened by margin_m: its (min_lat, min_lng) and
    (max_lat, max_lng) corners, each of shape (runs, 2)."""
    lo_lat = np.minimum.reduceat(lats, starts)
    hi_lat = np.maximum.reduceat(lats, starts)
    dlat = math.degrees(margin_m / EARTH_RADIUS_M)
    dlng = np.array([math.degrees(margin_m / (
        EARTH_RADIUS_M * max(0.01, math.cos(math.radians(mid_lat)))))
        for mid_lat in ((lo_lat + hi_lat) / 2).tolist()])
    return (np.column_stack([lo_lat - dlat,
                             np.minimum.reduceat(lngs, starts) - dlng]),
            np.column_stack([hi_lat + dlat,
                             np.maximum.reduceat(lngs, starts) + dlng]))


def _pick_identity(index: PositionIndex, votes: np.ndarray,
                   midpoint_s: float) -> tuple[str, LineType]:
    """Modal line name over the fixes at rows votes; ties go to the name seen
    nearest the segment midpoint (some vehicles flicker to bogus names), then
    to the lesser name. The type is that of the winner's fix nearest the
    midpoint, then of the earlier fix, then the lesser type value."""
    codes = index.line_name[votes]
    off = np.abs(index.times_s[votes] - midpoint_s)
    counts = np.bincount(codes)
    winner = min(np.flatnonzero(counts == counts.max()).tolist(),
                 key=lambda c: (off[codes == c].min(), index.names[c]))
    mine = codes == winner
    _, _, value = min(zip(off[mine].tolist(), index.times_s[votes[mine]].tolist(),
                          [LINE_TYPES[t].value
                           for t in index.line_type[votes[mine]].tolist()]))
    return index.names[winner], LineType(value)


@dataclass(frozen=True, eq=False)
class LiveCandidates:
    """What prune_live found for one segment and live method, and what
    score_survivors scored of it."""
    samples: TraceColumns  # the user samples to match
    in_range: list[str]    # vehicles with a fix in the time range, ref order
    survivors: list[str]   # those that pass the box prune, ref order
    # each survivor's score_vehicle result, in ref order; None until scored
    scored: Optional[dict[str, Optional[VehicleScore]]] = None


class _Runs:
    """The runs of several sample sets, and the quorum test of vehicles
    against them.

    Sample set j, n samples, is split into runs of n - need + 1
    consecutive samples, need being the fewest matched samples that reach
    the quorum, so that one run missed in full leaves a vehicle below it.
    A run's box is that of its samples widened by twice the distance limit;
    run k's windows span t0[k] to t1[k]."""

    def __init__(self, samples: Sequence[TraceColumns], cfg: LiveMatchConfig):
        counts, needs, first_run, run_first, run_last = [], [], [], [], []
        offset = 0
        for s in samples:
            n = len(s)
            # the fewest matched samples that pass score_vehicle's float
            # test, matched / n >= quorum; the test is monotone in the
            # count, so every count below need fails it and every count
            # from need on passes
            need = next(c for c in range(n + 1) if not c / n < cfg.quorum_fraction)
            counts.append(n)
            needs.append(need)
            first_run.append(len(run_first))
            starts = range(offset, offset + n, n - need + 1)
            run_first += starts
            run_last += [min(a + n - need, offset + n - 1) for a in starts]
            offset += n
        times = np.concatenate([s.times_s for s in samples])
        run_first, run_last = np.array(run_first), np.array(run_last)
        self.size = run_last - run_first + 1
        self.t0 = times[run_first] - cfg.window_s
        self.t1 = times[run_last] + cfg.window_s
        self.lows, self.highs = _run_boxes(
            np.concatenate([s.lats for s in samples]),
            np.concatenate([s.lngs for s in samples]),
            run_first, 2 * cfg.distance_limit_m)
        self.first = np.array(first_run)
        self.runs = np.diff(self.first, append=len(run_first))
        self.counts, self.needs = np.array(counts), np.array(needs)

    def keeps(self, of: np.ndarray, box_of) -> np.ndarray:
        """Whether each vehicle k keeps the quorum of sample set of[k],
        box_of(k, run) being the fix box of vehicle k[i] over run[i]: the
        samples of the runs whose box it misses leave it need or more.
        Every (vehicle, run) is taken in one pass."""
        runs = self.runs[of]
        run, _ = ranges(self.first[of], runs)
        k = np.repeat(np.arange(len(of)), runs)
        box = box_of(k, run)
        missed = self.size[run] * ((box[:, :2] > self.highs[run])
                                   | (box[:, 2:] < self.lows[run])).any(axis=1)
        return (self.counts[of] - np.bincount(k, missed, len(of))
                >= self.needs[of])


def prune_live(segments: Sequence[ActivitySegment], cfg: LiveMatchConfig,
               index: PositionIndex, methods: Sequence[str],
               ) -> dict[str, list[LiveCandidates]]:
    """The samples, the vehicles in range and the box-prune survivors of
    each segment for each live method of methods, in segment order.

    select_user_samples keeps a trace's first and last point for either
    method, so a segment's vehicles in range, those with a fix in its whole
    sample window, and each one's fix box over that window serve every
    method: one vehicles_in_range call per segment with two points or more
    and one boxes_in_range pass over every (segment, vehicle in range) pair
    find them. The pass takes the pairs in blocks of whole segments, of at
    most _MAX_PAIRS pairs unless one segment has more, so that its per-pair
    arrays stay small.

    A sample within the distance limit of its window's polyline has the
    vehicle's fix box of its run within the run's box, twice the limit
    covering the degree approximation. So a pair whose fix box misses the
    boxes of a method's runs of too many samples to reach the quorum is
    dropped for that method. Each method tests the pairs so twice: first,
    a block at a time, with the fix box over the whole window, which holds
    the fix box over each run, so that this test drops only pairs that the
    second drops too; then, in one pass, those that pass with their fix box
    over each of its runs' windows. The survivors are those of the second
    test alone.
    """
    in_range = [index.vehicles_in_range(s.trace.times_s[0] - cfg.window_s,
                                        s.trace.times_s[-1] + cfg.window_s)
                if len(s.trace) >= 2 else [] for s in segments]
    samples = {m: [select_user_samples(s.trace, cfg.max_user_samples
                                       if m == NEW_LIVE else cfg.old_live_samples)
                   for s in segments] for m in methods}
    ranged = [j for j, refs in enumerate(in_range) if refs]
    per_segment = np.array([len(in_range[j]) for j in ranged], dtype=np.intp)
    alive = {m: np.zeros(per_segment.sum(), dtype=bool) for m in methods}
    if ranged:
        # the segment of each pair, its pairs in ref order
        segment = np.repeat(np.arange(len(ranged)), per_segment)
        slots = np.array([index.slot(ref) for j in ranged for ref in in_range[j]])
        first_pair = np.concatenate([[0], np.cumsum(per_segment)])
        t0 = np.array([segments[j].trace.times_s[0] for j in ranged]) - cfg.window_s
        t1 = np.array([segments[j].trace.times_s[-1] for j in ranged]) + cfg.window_s
        runs = {m: _Runs([samples[m][j] for j in ranged], cfg) for m in methods}
        near = {m: [] for m in methods}
        for block in blocks(per_segment, _MAX_PAIRS):
            pairs = np.arange(first_pair[block.start], first_pair[block.stop])
            whole = index.boxes_in_range(slots[pairs], t0[block], t1[block],
                                         segment[pairs] - block.start)
            for m in methods:
                near[m].append(pairs[runs[m].keeps(segment[pairs],
                                                   lambda k, run: whole[k])])
        for m in methods:
            kept, test = np.concatenate(near[m]), runs[m]
            alive[m][kept] = test.keeps(segment[kept], lambda k, run: (
                index.boxes_in_range(slots[kept[k]], test.t0, test.t1, run)))
    out = {}
    for m in methods:
        out[m], at = [], 0
        for s, refs in zip(samples[m], in_range):
            out[m].append(LiveCandidates(s, refs, list(compress(
                refs, alive[m][at:at + len(refs)].tolist()))))
            at += len(refs)
    return out


def score_survivors(candidates: Sequence[LiveCandidates],
                    cfg: LiveMatchConfig, index: PositionIndex,
                    method: str) -> list[LiveCandidates]:
    """candidates with the score of every survivor: one score_vehicle pass
    over all (segment, survivor) pairs, each pair's samples being those of
    its segment."""
    if not candidates:
        return []
    n = np.array([len(c.samples) for c in candidates])
    survivors = [len(c.survivors) for c in candidates]
    sizes = np.repeat(n, survivors)
    rows, _ = ranges(np.repeat(np.cumsum(n) - n, survivors), sizes)
    scores = iter(score_vehicle(
        TraceColumns.concat([c.samples for c in candidates])[rows], sizes,
        [ref for c in candidates for ref in c.survivors], cfg, index,
        use_linestring=method == NEW_LIVE))
    return [LiveCandidates(c.samples, c.in_range, c.survivors,
                           {ref: next(scores) for ref in c.survivors})
            for c in candidates]


@dataclass(frozen=True)
class LiveDecision:
    """What decide_live saw and decided for one segment."""
    samples: TraceColumns  # the user samples matched
    use_linestring: bool   # distances to window polylines, else nearest fixes
    in_range: list[str]    # vehicles with a fix in the time range, ref order
    # each box-prune survivor's score_vehicle result, in ref order
    scored: dict[str, Optional[VehicleScore]]
    result: Optional[LiveMatchResult]


def decide_live(segment: ActivitySegment, cfg: LiveMatchConfig,
                index: PositionIndex, method: str,
                candidates: Optional[LiveCandidates] = None) -> LiveDecision:
    """Match segment with live method: new-live measures up to
    cfg.max_user_samples samples to the window polylines, old-live
    cfg.old_live_samples samples to the nearest fixes. candidates is the
    segment's score_survivors result for the method, found here when
    None."""
    if candidates is None:
        candidates = score_survivors(
            prune_live([segment], cfg, index, [method])[method], cfg, index,
            method)[0]
    scored = candidates.scored
    best = min((s for s in scored.values() if s is not None and s.eligible),
               key=_score_order, default=None)
    result = None
    if best is not None:
        name, line_type = _pick_identity(index, best.votes,
                                         as_seconds(segment.midpoint_time))
        result = LiveMatchResult(segment.segment_id, method, best.vehicle_ref,
                                 line_type, name, best.score, best.matched_fraction)
    return LiveDecision(candidates.samples, method == NEW_LIVE,
                        candidates.in_range, scored, result)


def _score_order(s: VehicleScore) -> tuple:
    """Higher score, then higher matched fraction, then lower mean of the
    finite distances (summed in sample order), then the lesser ref."""
    finite = s.distances[np.isfinite(s.distances)].tolist()
    mean = sum(finite) / len(finite) if finite else math.inf
    return (-s.score, -s.matched_fraction, mean, s.vehicle_ref)


def match_live(segment: ActivitySegment, cfg: LiveMatchConfig,
               index: PositionIndex,
               candidates: Optional[LiveCandidates] = None,
               ) -> Optional[LiveMatchResult]:
    """Linestring-based matching with up to cfg.max_user_samples samples."""
    return decide_live(segment, cfg, index, NEW_LIVE, candidates).result


def match_live_old(segment: ActivitySegment, cfg: LiveMatchConfig,
                   index: PositionIndex,
                   candidates: Optional[LiveCandidates] = None,
                   ) -> Optional[LiveMatchResult]:
    """The four-sample point-to-point baseline."""
    return decide_live(segment, cfg, index, OLD_LIVE, candidates).result
