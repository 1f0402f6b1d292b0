"""Cut filtered point streams into maximal same-activity segments.

Segment ids are 1-based and assigned per device in chronological order, with
devices concatenated in ascending device_id order; ids exist for human
cross-reference only and never feed back into matching.
"""
from __future__ import annotations

import csv
from bisect import bisect_left, bisect_right
from datetime import datetime
from typing import Iterable, Sequence

from .ingest import Column, Stamps, format_timestamp, load_table
from .types import Activity, ActivitySegment, FilteredPoint, ManualTrip, seconds_between

DEFAULT_MAX_GAP_S = 300.0

SEGMENT_CSV_COLUMNS = ["id", "device_id", "activity", "start", "end", "n_points"]


def build_segments(points: Iterable[FilteredPoint],
                   max_gap_s: float = DEFAULT_MAX_GAP_S) -> list[ActivitySegment]:
    """Group points into segments, splitting on activity change or when the
    gap between consecutive points of a device exceeds max_gap_s."""
    by_device: dict[int, list[FilteredPoint]] = {}
    for p in points:
        by_device.setdefault(p.device_id, []).append(p)

    segments: list[ActivitySegment] = []
    next_id = 1
    for device_id in sorted(by_device):
        stream = sorted(by_device[device_id], key=lambda p: p.time)
        run: list[FilteredPoint] = []
        for p in stream:
            if run and (p.activity != run[-1].activity or
                        seconds_between(run[-1].time, p.time) > max_gap_s):
                segments.append(ActivitySegment(next_id, device_id,
                                                run[0].activity, tuple(run)))
                next_id += 1
                run = []
            run.append(p)
        if run:
            segments.append(ActivitySegment(next_id, device_id,
                                            run[0].activity, tuple(run)))
            next_id += 1
    return segments


def vehicular_candidates(segments: Sequence[ActivitySegment]) -> list[ActivitySegment]:
    """IN_VEHICLE segments with at least two points (a 1-point trace cannot
    be matched against anything)."""
    return [s for s in segments
            if s.activity is Activity.IN_VEHICLE and len(s.points) >= 2]


def overlap(segment: ActivitySegment, trip: ManualTrip) -> tuple[bool, float]:
    """Closed-interval overlap between a segment and a logged trip.

    Touching endpoints count as overlap (manual timestamps are approximate,
    often minute-granular). Returns (overlaps, intersection seconds).
    """
    trip_start, trip_end = trip.start, trip.end
    if trip_start is None or trip_end is None:
        return False, 0.0
    start = max(segment.start_time, trip_start)
    end = min(segment.end_time, trip_end)
    if start > end:
        return False, 0.0
    return True, seconds_between(start, end)


def write_segments_csv(segments: Sequence[ActivitySegment], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(SEGMENT_CSV_COLUMNS)
        for s in segments:
            writer.writerow([s.segment_id, s.device_id, s.activity.value,
                             format_timestamp(s.start_time),
                             format_timestamp(s.end_time), len(s.points)])


def load_segments_csv(path, filtered_points: Sequence[FilteredPoint],
                      ) -> list[ActivitySegment]:
    """Rebuild segments exported by write_segments_csv, re-attaching traces
    from the filtered table (segments partition a device's stream by time, so
    the closed time range recovers exactly the original points)."""
    by_device: dict[int, list[FilteredPoint]] = {}
    for p in filtered_points:
        by_device.setdefault(p.device_id, []).append(p)
    for stream in by_device.values():
        stream.sort(key=lambda p: p.time)

    def make(segment_id: int, device_id: int, activity: Activity,
             start: datetime, end: datetime, expected: int) -> ActivitySegment:
        stream = by_device.get(device_id, [])
        lo = bisect_left(stream, start, key=lambda p: p.time)
        hi = bisect_right(stream, end, key=lambda p: p.time)
        pts = tuple(p for p in stream[lo:hi] if p.activity is activity)
        if len(pts) != expected:
            raise ValueError(
                f"segment {segment_id}: reconstructed {len(pts)} points, "
                f"expected {expected}; filtered table does not match")
        return ActivitySegment(segment_id, device_id, activity, pts)

    return load_table(path, [
        Column("id", int), Column("device_id", int), Column("activity", Activity),
        Column("start", Stamps()), Column("end", Stamps()),
        Column("n_points", int)]).build(make)
