"""Identify the ridden vehicle from sampled fleet positions.

The current method compares user samples against short vehicle linestrings
collected in a closed +/-60 s window around each sample; the prior baseline
("old live") used four user samples and raw point-to-point distances, which
starts missing once vehicles move fast enough to put 30 s fixes further than
two distance limits apart (~24 km/h).
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timedelta
from itertools import compress
from typing import NamedTuple, Optional

import numpy as np

from .geodesy import EARTH_RADIUS_M, distances_m, points_to_polylines_m
from .types import (
    ActivitySegment,
    FleetColumns,
    LINE_TYPES,
    LineType,
    TraceColumns,
    as_seconds,
    from_seconds,
)

NEW_LIVE = "new-live"
OLD_LIVE = "old-live"


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
        if not 0.0 < self.quorum_fraction <= 1.0:
            raise ValueError(f"quorum_fraction must be in (0, 1], "
                             f"got {self.quorum_fraction!r}")


class PositionIndex:
    """Immutable fleet-position index: every row sorted by (vehicle, time),
    vehicles in vehicle_ref order. Rows with equal (vehicle, time) keep input
    order. A by-time permutation answers time-range queries; an integer
    (vehicle, time) key answers window queries of many vehicles at once."""

    def __init__(self, fleet: FleetColumns):
        by_ref = sorted(range(len(fleet.refs)), key=fleet.refs.__getitem__)
        slot_of = np.empty(len(by_ref), np.int32)
        slot_of[by_ref] = np.arange(len(by_ref), dtype=np.int32)
        vehicle = slot_of[fleet.vehicle_ref]
        order = np.lexsort((fleet.times_s, vehicle))
        self.vehicle_refs = [fleet.refs[i] for i in by_ref]
        self._slots = {ref: i for i, ref in enumerate(self.vehicle_refs)}
        self.times_s = fleet.times_s[order]
        self.lats = fleet.lats[order]
        self.lngs = fleet.lngs[order]
        self._line_type = fleet.line_type[order]
        self._line_name = fleet.line_name[order]
        self._names = fleet.names
        self._by_time = np.argsort(self.times_s, kind="stable")
        # (vehicle, time) as one exact, ascending integer key: a time is
        # replaced by the number of fixes earlier than it
        self._stride = len(order) + 1
        self._key = self._fixes_before(self.times_s, "left")
        self._key += np.multiply(vehicle[order], self._stride, dtype=np.int64)

    def _fixes_before(self, t_s, side: str) -> np.ndarray:
        """Number of fixes earlier than t_s (side "left") or at most t_s
        (side "right")."""
        return np.searchsorted(self.times_s, t_s, side=side, sorter=self._by_time)

    def __len__(self) -> int:
        return len(self.vehicle_refs)

    def slot(self, vehicle_ref: str) -> Optional[int]:
        """The vehicle's position in vehicle_refs; None for an unknown vehicle."""
        return self._slots.get(vehicle_ref)

    def fix(self, row: int) -> tuple[str, LineType, datetime]:
        """(line_name, line_type, time) of one row."""
        return (self._names[self._line_name[row]],
                LINE_TYPES[self._line_type[row]], from_seconds(self.times_s[row]))

    def vehicles_in_range(self, t0: datetime, t1: datetime) -> list[str]:
        """Vehicles with a fix in the closed window [t0, t1], in ref order."""
        lo = self._fixes_before(as_seconds(t0), "left")
        hi = self._fixes_before(as_seconds(t1), "right")
        slots = np.unique(self._key[self._by_time[lo:hi]] // self._stride)
        return [self.vehicle_refs[v] for v in slots.tolist()]

    def boxes_in_range(self, t0: datetime, t1: datetime,
                       slots: np.ndarray) -> np.ndarray:
        """(min_lat, min_lng, max_lat, max_lng) of the fixes in [t0, t1] of
        each vehicle of slots, which must all have one there."""
        lo, hi = self.windows(slots, np.array([as_seconds(t0)]),
                              np.array([as_seconds(t1)]))
        counts = (hi - lo)[:, 0]
        if not len(counts):
            return np.empty((0, 4))
        starts = np.cumsum(counts) - counts
        rows = np.arange(counts.sum()) + np.repeat(lo[:, 0] - starts, counts)
        lats, lngs = self.lats[rows], self.lngs[rows]
        return np.column_stack([np.minimum.reduceat(lats, starts),
                                np.minimum.reduceat(lngs, starts),
                                np.maximum.reduceat(lats, starts),
                                np.maximum.reduceat(lngs, starts)])

    def windows(self, slots: np.ndarray, t0_s: np.ndarray, t1_s: np.ndarray,
                ) -> tuple[np.ndarray, np.ndarray]:
        """Rows lo[i, j]:hi[i, j] are vehicle slots[i]'s fixes with
        t0_s[j] <= time <= t1_s[j], time-sorted. The comparisons are exact:
        a fix is at or after t0 iff no fewer fixes are earlier than it than
        are earlier than t0, and at or before t1 iff fewer fixes are earlier
        than it than are at or before t1."""
        base = np.asarray(slots, dtype=np.int64)[:, None] * self._stride
        lo = np.searchsorted(self._key, base + self._fixes_before(t0_s, "left"))
        hi = np.searchsorted(self._key, base + self._fixes_before(t1_s, "right"))
        return lo, hi


def select_user_samples(trace: TraceColumns, max_samples: int) -> TraceColumns:
    """At most max_samples points spread evenly by index, always keeping the
    first and last point: rows round(i * last / (max_samples - 1))."""
    n = len(trace)
    if n <= max_samples:
        return trace
    rows = np.arange(max_samples) * (n - 1) / (max_samples - 1)
    return trace[np.rint(rows).astype(np.int64)]


@dataclass
class VehicleScore:
    vehicle_ref: str
    score: float
    matched_fraction: float
    sample_distances: list[Optional[float]]
    votes: list[tuple[str, LineType, datetime]]  # (line_name, line_type, fix time)

    @property
    def mean_matched_distance(self) -> float:
        matched = [d for d in self.sample_distances
                   if d is not None and not math.isinf(d)]
        return sum(matched) / len(matched) if matched else math.inf


class _Windows(NamedTuple):
    """Every (vehicle, sample) window of one kernel pass, vehicle-major:
    window k pairs vehicle k // n with sample k % n."""

    counts: np.ndarray    # fixes in each window
    windowed: np.ndarray  # the windows holding a fix
    starts: np.ndarray    # first pair of each windowed window
    d: np.ndarray         # geometry distance of each windowed window
    window: np.ndarray    # window of each (window, fix) pair, in time order
    row: np.ndarray       # index row of each pair
    d_point: np.ndarray   # sample-to-fix distance of each pair


def _score_windows(samples: TraceColumns, slots: np.ndarray,
                   cfg: LiveMatchConfig, index: PositionIndex,
                   use_linestring: bool) -> _Windows:
    """Distances from each sample to the geometry each vehicle of slots
    traces in the closed window around the sample, for every (vehicle,
    sample) pair in one array pass."""
    n = len(samples)
    lo, hi = index.windows(slots, samples.times_s - cfg.window_s,
                           samples.times_s + cfg.window_s)
    lo = lo.ravel()
    counts = hi.ravel() - lo
    first = np.cumsum(counts) - counts
    window = np.repeat(np.arange(len(counts)), counts)
    row = lo[window] + np.arange(len(window)) - first[window]
    sample = window % n
    p_lat, p_lng = samples.lats[sample], samples.lngs[sample]
    lats, lngs = index.lats[row], index.lngs[row]
    d_point = distances_m(p_lat, p_lng, lats, lngs)
    windowed = np.flatnonzero(counts)
    starts = first[windowed]
    if use_linestring:
        d = points_to_polylines_m(p_lat, p_lng, lats, lngs, d_point, starts)
    else:
        d = np.minimum.reduceat(d_point, starts) if len(starts) else np.empty(0)
    return _Windows(counts, windowed, starts, d, window, row, d_point)


def score_vehicle(samples: TraceColumns, vehicle_ref: str,
                  cfg: LiveMatchConfig, index: PositionIndex,
                  use_linestring: bool = True) -> Optional[VehicleScore]:
    """Score one vehicle against the user samples.

    A sample matches when the vehicle's window geometry is non-empty and
    within the distance limit; samples with empty windows stay in the quorum
    denominator. Returns None below quorum or at zero score.

    Scores are summed in sample order and each matched sample votes for its
    first nearest fix, as a per-sample loop would.
    """
    slot = index.slot(vehicle_ref)
    if slot is None or not samples:
        return None
    w = _score_windows(samples, np.array([slot]), cfg, index, use_linestring)
    if len(w.windowed) == 0:
        return None
    nearest_d = np.repeat(np.minimum.reduceat(w.d_point, w.starts),
                          w.counts[w.windowed])
    hits = np.flatnonzero(w.d_point == nearest_d)
    nearest = w.row[hits[np.diff(w.window[hits], prepend=-1) != 0]]

    matched = w.d <= cfg.distance_limit_m
    fraction = int(np.count_nonzero(matched)) / len(samples)
    gains = cfg.distance_limit_m - w.d[matched]
    score = float(np.cumsum(gains)[-1]) if len(gains) else 0.0
    if fraction < cfg.quorum_fraction or score <= 0.0:
        return None
    distances: list[Optional[float]] = [None] * len(samples)
    for i, value in zip(w.windowed.tolist(), w.d.tolist()):
        distances[i] = value
    votes = [index.fix(r) for r in nearest[matched].tolist()]
    return VehicleScore(vehicle_ref, score, fraction, distances, votes)


@dataclass(frozen=True)
class LiveMatchResult:
    segment_id: int
    method: str
    vehicle_ref: str
    line_type: LineType
    line_name: str
    score: float
    matched_fraction: float
    sample_distances: tuple[Optional[float], ...]


def _segment_bbox(samples: TraceColumns, margin_m: float):
    lats, lngs = samples.lats, samples.lngs
    mid_lat = (lats.min() + lats.max()) / 2
    dlat = math.degrees(margin_m / EARTH_RADIUS_M)
    dlng = math.degrees(margin_m / (EARTH_RADIUS_M *
                                    max(0.01, math.cos(math.radians(mid_lat)))))
    return (lats.min() - dlat, lngs.min() - dlng, lats.max() + dlat, lngs.max() + dlng)


def _pick_identity(votes: list[tuple[str, LineType, datetime]],
                   midpoint: datetime) -> tuple[str, LineType]:
    """Modal line name over the matched votes; ties go to the name observed
    nearest the segment midpoint (some vehicles flicker to bogus names)."""
    counts = Counter(name for name, _, _ in votes)
    top = max(counts.values())

    def tie_key(name: str) -> tuple[float, str]:
        nearest = min(abs((t - midpoint).total_seconds())
                      for n, _, t in votes if n == name)
        return nearest, name

    winner = min((name for name, c in counts.items() if c == top), key=tie_key)
    candidates = [(abs((t - midpoint).total_seconds()), t, lt.value, lt)
                  for n, lt, t in votes if n == winner]
    candidates.sort(key=lambda item: (item[0], item[1], item[2]))
    return winner, candidates[0][3]


def _match(segment: ActivitySegment, cfg: LiveMatchConfig, index: PositionIndex,
           n_samples: int, use_linestring: bool, method: str,
           ) -> Optional[LiveMatchResult]:
    samples = select_user_samples(segment.trace, n_samples)
    if len(samples) < 2:
        return None
    t0 = segment.start_time - timedelta(seconds=cfg.window_s)
    t1 = segment.end_time + timedelta(seconds=cfg.window_s)
    # a vehicle within the distance limit of a sample has a fix box within
    # it too; twice the limit covers the degree approximation of the box
    seg_box = _segment_bbox(samples, 2 * cfg.distance_limit_m)

    refs = index.vehicles_in_range(t0, t1)
    slots = np.array([index.slot(ref) for ref in refs])
    boxes = index.boxes_in_range(t0, t1, slots)
    overlap = ~((seg_box[2] < boxes[:, 0]) | (boxes[:, 2] < seg_box[0])
                | (seg_box[3] < boxes[:, 1]) | (boxes[:, 3] < seg_box[1]))
    candidates = list(compress(refs, overlap))
    if not candidates:
        return None
    # one pass over every candidate drops those score_vehicle would reject
    # for want of quorum, by the same count and the same float test
    slots = slots[overlap]
    w = _score_windows(samples, slots, cfg, index, use_linestring)
    matched = np.bincount(w.windowed[w.d <= cfg.distance_limit_m] // len(samples),
                          minlength=len(candidates))
    quorate = ~(matched / len(samples) < cfg.quorum_fraction)
    best: Optional[VehicleScore] = None
    for ref in compress(candidates, quorate):
        scored = score_vehicle(samples, ref, cfg, index,
                               use_linestring=use_linestring)
        if scored is None:
            continue
        if best is None or _score_order(scored) < _score_order(best):
            best = scored
    if best is None:
        return None
    name, line_type = _pick_identity(best.votes, segment.midpoint_time)
    return LiveMatchResult(
        segment_id=segment.segment_id,
        method=method,
        vehicle_ref=best.vehicle_ref,
        line_type=line_type,
        line_name=name,
        score=best.score,
        matched_fraction=best.matched_fraction,
        sample_distances=tuple(best.sample_distances),
    )


def _score_order(s: VehicleScore) -> tuple:
    return (-s.score, -s.matched_fraction, s.mean_matched_distance, s.vehicle_ref)


def match_live(segment: ActivitySegment, cfg: LiveMatchConfig,
               index: PositionIndex) -> Optional[LiveMatchResult]:
    """Linestring-based matching with up to cfg.max_user_samples samples."""
    return _match(segment, cfg, index, cfg.max_user_samples,
                  use_linestring=True, method=NEW_LIVE)


def match_live_old(segment: ActivitySegment, cfg: LiveMatchConfig,
                   index: PositionIndex) -> Optional[LiveMatchResult]:
    """The four-sample point-to-point baseline."""
    return _match(segment, cfg, index, cfg.old_live_samples,
                  use_linestring=False, method=OLD_LIVE)
