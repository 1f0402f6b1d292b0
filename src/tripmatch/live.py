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
vehicle with too many such misses, for all the segments of a stage at once:
every (segment, vehicle in range) pair is tested in array passes, first
with the vehicle's fix box over the segment's whole sample window, which
holds the box of each run, and then, for the few pairs that pass, with its
fix box over each run. Each survivor is then scored once, in ref order, by
score_vehicle, which marks it eligible at the quorum; the best eligible
score names the vehicle. decide_live returns all of this, so that a
diagnostic shows what the matcher saw and decided.
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
)

NEW_LIVE = "new-live"
OLD_LIVE = "old-live"

_MAX_ROWS = 1 << 15  # index rows gathered per box block
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
            value = getattr(self, name)
            if type(value) is not int or value < 2:
                raise ValueError(f"{name} must be an integer >= 2, got {value!r}")
        for name in ("distance_limit_m", "window_s", "quorum_fraction"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{name} must be a number, got {value!r}")
        for name in ("distance_limit_m", "window_s"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.window_s > MAX_SLACK_S:
            raise ValueError(f"window_s must be at most {MAX_SLACK_S:.0f} s, "
                             f"got {self.window_s!r}")
        if not 0.0 < self.quorum_fraction <= 1.0:
            raise ValueError(f"quorum_fraction must be in (0, 1], "
                             f"got {self.quorum_fraction!r}")


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
        time <= t1_s[w], w = window[i], time-sorted; slots may be one slot
        for every window that window selects. The comparisons are exact: a
        fix is at or after t0 iff no fewer fixes are earlier than it than
        are earlier than t0, and at or before t1 iff fewer fixes are
        earlier than it than are at or before t1."""
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


def score_vehicle(samples: TraceColumns, vehicle_ref: str,
                  cfg: LiveMatchConfig, index: PositionIndex,
                  use_linestring: bool = True) -> Optional[VehicleScore]:
    """Score one vehicle against the user samples.

    Sample k's window holds the vehicle's fixes in the closed window of
    cfg.window_s around it; every (window, fix) pair is measured in one
    array pass. A sample matches when its window is non-empty and the
    window's polyline (use_linestring) or nearest fix lies within the
    distance limit; samples with empty windows stay in the quorum
    denominator. Returns None for an unknown vehicle or when no sample
    matches; otherwise the score, eligible when the matched fraction reaches
    the quorum and the score is positive.

    Scores are summed in sample order and each matched sample votes for its
    first nearest fix, in sample order, as a per-sample loop would.
    """
    slot = index.slot(vehicle_ref)
    if slot is None or not samples:
        return None
    n = len(samples)
    lo, hi = index.window_rows(slot, samples.times_s - cfg.window_s,
                               samples.times_s + cfg.window_s, slice(None))
    counts = hi - lo
    windowed = np.flatnonzero(counts)
    if not len(windowed):
        return None  # a sample with an empty window cannot match
    row, first = ranges(lo, counts)
    window = np.repeat(np.arange(len(counts)), counts)
    p_lat, p_lng = samples.lats[window], samples.lngs[window]
    lats, lngs = index.lats[row], index.lngs[row]
    d_point = distances_m(p_lat, p_lng, lats, lngs)
    starts = first[windowed]
    nearest = np.minimum.reduceat(d_point, starts)
    d = (points_to_polylines_m(p_lat, p_lng, lats, lngs, d_point, starts)
         if use_linestring else nearest)

    matched = d <= cfg.distance_limit_m
    if not matched.any():
        return None
    fraction = int(np.count_nonzero(matched)) / n
    score = float(np.cumsum(cfg.distance_limit_m - d[matched])[-1])
    eligible = not (fraction < cfg.quorum_fraction or score <= 0.0)
    hits = np.flatnonzero(d_point == np.repeat(nearest, counts[windowed]))
    hit_window = window[hits]
    first_hit = np.ones(len(hits), dtype=bool)
    first_hit[1:] = hit_window[1:] != hit_window[:-1]
    distances = np.full(n, np.nan)
    distances[windowed] = d
    votes = row[hits[first_hit]][matched]
    return VehicleScore(vehicle_ref, score, fraction, distances, votes, eligible)


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
    """What prune_live found for one segment and live method."""
    samples: TraceColumns  # the user samples to match
    in_range: list[str]    # vehicles with a fix in the time range, ref order
    survivors: list[str]   # those that pass the box prune, ref order


def prune_live(segments: Sequence[ActivitySegment], cfg: LiveMatchConfig,
               index: PositionIndex, method: str) -> list[LiveCandidates]:
    """The samples, the vehicles in range and the box-prune survivors of
    each segment for the live method, in segment order.

    A segment's samples are split into runs of n - need + 1 consecutive
    samples, need being the fewest matched samples that reach the quorum,
    so that one run missed in full leaves the vehicle below it. A run's
    box is that of its samples widened by twice the distance limit: a
    sample within the distance limit of its window's polyline has the
    vehicle's fix box of its run within the box, twice the limit covering
    the degree approximation. A pair whose fix box misses the boxes of
    runs of too many samples to reach the quorum is dropped.

    Every (segment, vehicle in range) pair is tested so in array passes,
    twice: first with the vehicle's fix box over the segment's whole sample
    window, which holds its fix box over each run, so that the pass drops
    only pairs that the second drops too; then, for the pairs that pass,
    with its fix box over each run's windows. The survivors are those of
    the second test alone. The first pass takes the pairs in blocks of
    whole segments, of at most _MAX_PAIRS pairs unless one segment has
    more, so that its per-pair arrays stay small.
    """
    max_samples = (cfg.max_user_samples if method == NEW_LIVE
                   else cfg.old_live_samples)
    found = []
    # per segment with a vehicle in range: its sample count, need and
    # first run; per run, its first sample and its last
    counts, needs, first_run, run_first, run_last = [], [], [], [], []
    samples_of, slots = [], []
    for segment in segments:
        samples = select_user_samples(segment.trace, max_samples)
        n = len(samples)
        refs: list[str] = []
        if n >= 2:
            refs = index.vehicles_in_range(samples.times_s[0] - cfg.window_s,
                                           samples.times_s[-1] + cfg.window_s)
        found.append((samples, refs))
        if not refs:
            continue
        # the fewest matched samples that pass score_vehicle's float test,
        # matched / n >= quorum; the test is monotone in the count, so every
        # count below need fails it and every count from need on passes
        need = next(c for c in range(n + 1) if not c / n < cfg.quorum_fraction)
        offset = run_last[-1] + 1 if run_last else 0
        counts.append(n)
        needs.append(need)
        first_run.append(len(run_first))
        run_first += range(offset, offset + n, n - need + 1)
        run_last += [min(a + n - need, offset + n - 1)
                     for a in run_first[first_run[-1]:]]
        samples_of.append(samples)
        slots += map(index.slot, refs)
    if not slots:
        return [LiveCandidates(samples, refs, []) for samples, refs in found]

    times = np.concatenate([s.times_s for s in samples_of])
    run_first, run_last = np.array(run_first), np.array(run_last)
    run_size = run_last - run_first + 1
    run_t0, run_t1 = times[run_first] - cfg.window_s, times[run_last] + cfg.window_s
    lows, highs = _run_boxes(np.concatenate([s.lats for s in samples_of]),
                             np.concatenate([s.lngs for s in samples_of]),
                             run_first, 2 * cfg.distance_limit_m)
    first_run = np.array(first_run)
    runs = np.diff(first_run, append=len(run_first))
    counts, needs = np.array(counts), np.array(needs)
    # the segment of each pair, its pairs in ref order
    segment = np.repeat(np.arange(len(counts)),
                        [len(refs) for _, refs in found if refs])
    slots = np.array(slots)

    def keeps(pairs, box_of):
        """Whether each of the pairs keeps the quorum, box_of(k, run) being
        the fix box of pairs[k] over run: the samples of the runs whose box
        it misses leave it need or more. Run r of every pair is taken in
        one pass."""
        of = segment[pairs]
        missed = np.zeros(len(pairs), dtype=np.int64)
        for r in range(runs[of].max(initial=0)):
            k = np.flatnonzero(runs[of] > r)
            run = first_run[of[k]] + r
            box = box_of(k, run)
            missed[k] += run_size[run] * ((box[:, :2] > highs[run])
                                          | (box[:, 2:] < lows[run])).any(axis=1)
        return counts[of] - missed >= needs[of]

    # the fix box over the whole sample window holds the fix box of each
    # run, so a run whose box it misses is missed in full. The pairs are
    # taken in blocks of whole segments, at most _MAX_PAIRS pairs each
    t0, t1 = run_t0[first_run], run_t1[first_run + runs - 1]
    per_segment = np.bincount(segment)
    first_pair = np.cumsum(per_segment) - per_segment
    near = []
    for block in blocks(per_segment, _MAX_PAIRS):
        pairs = np.arange(first_pair[block.start],
                          first_pair[block.stop - 1] + per_segment[block.stop - 1])
        whole = index.boxes_in_range(slots[pairs], t0[block], t1[block],
                                     segment[pairs] - block.start)
        near.append(pairs[keeps(pairs, lambda k, run: whole[k])])
    near = np.concatenate(near)
    alive = np.zeros(len(slots), dtype=bool)
    alive[near] = keeps(near, lambda k, run: index.boxes_in_range(
        slots[near[k]], run_t0, run_t1, run))
    out, at = [], 0
    for samples, refs in found:
        out.append(LiveCandidates(samples, refs, list(compress(
            refs, alive[at:at + len(refs)].tolist()))))
        at += len(refs)
    return out


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
    segment's prune_live result for the method, found here when None."""
    if candidates is None:
        candidates = prune_live([segment], cfg, index, method)[0]
    use_linestring = method == NEW_LIVE
    samples = candidates.samples
    scored = {ref: score_vehicle(samples, ref, cfg, index,
                                 use_linestring=use_linestring)
              for ref in candidates.survivors}
    best = min((s for s in scored.values() if s is not None and s.eligible),
               key=_score_order, default=None)
    result = None
    if best is not None:
        name, line_type = _pick_identity(index, best.votes,
                                         as_seconds(segment.midpoint_time))
        result = LiveMatchResult(segment.segment_id, method, best.vehicle_ref,
                                 line_type, name, best.score, best.matched_fraction)
    return LiveDecision(samples, use_linestring, candidates.in_range, scored, result)


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
