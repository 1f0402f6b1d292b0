"""Cut the filtered device table into maximal same-activity segments.

The table is read as columns sorted by (device_id, time, file order), and a
segment is a slice of them. Segment ids are 1-based in that order: per device
in chronological order, devices in ascending device_id order; ids exist for
human cross-reference only and never feed back into matching.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .ingest import (Column, IngestError, Stamps, format_timestamp, load_table,
                     write_csv)
from .types import (ACTIVITIES, Activity, ActivitySegment, ManualTrip,
                    TraceColumns, as_seconds, check_number, from_seconds,
                    seconds_between)

DEFAULT_MAX_GAP_S = 300.0

SEGMENT_CSV_COLUMNS = ["id", "device_id", "activity", "start", "end", "n_points"]


def check_max_gap(max_gap_s: float) -> float:
    """max_gap_s, if it is >= 0 s; an infinite gap never cuts a segment."""
    return check_number("max_gap_s", max_gap_s, at_least=0, finite=False)


def build_segments(trace: TraceColumns,
                   max_gap_s: float = DEFAULT_MAX_GAP_S) -> list[ActivitySegment]:
    """Cut the trace on a device change, an activity change or a gap between
    consecutive points of more than max_gap_s."""
    check_max_gap(max_gap_s)
    if not len(trace):
        return []
    cuts = np.flatnonzero((np.diff(trace.device_id) != 0)
                          | (np.diff(trace.activity) != 0)
                          | (np.diff(trace.times_s) > max_gap_s)) + 1
    bounds = [0, *cuts.tolist(), len(trace)]
    return [ActivitySegment(segment_id, int(trace.device_id[lo]),
                            ACTIVITIES[trace.activity[lo]], trace[lo:hi])
            for segment_id, (lo, hi) in enumerate(zip(bounds, bounds[1:]), 1)]


def vehicular_candidates(segments: Sequence[ActivitySegment]) -> list[ActivitySegment]:
    """IN_VEHICLE segments with at least two points (a 1-point trace cannot
    be matched against anything)."""
    return [s for s in segments
            if s.activity is Activity.IN_VEHICLE and len(s.trace) >= 2]


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
    write_csv(path, SEGMENT_CSV_COLUMNS,
              ([s.segment_id, s.device_id, s.activity.value,
                format_timestamp(s.start_time), format_timestamp(s.end_time),
                len(s.trace)] for s in segments))


def load_segments_csv(path, trace: TraceColumns) -> list[ActivitySegment]:
    """Rebuild segments exported by write_segments_csv from the filtered
    table they were cut from: in id order, each segment is the next n_points
    rows of the trace, whose device, activity and first and last time must
    be the segment's, and the segments must use up every row."""
    table = load_table(path, [
        Column("id", int), Column("device_id", int), Column("activity", Activity),
        Column("start", Stamps()), Column("end", Stamps()),
        Column("n_points", int)])
    table.report()
    lines = np.delete(table.lines, list(table.bad)).tolist()
    segments, lo = [], 0
    for segment_id, device_id, activity, start, end, n, line in sorted(
            zip(*map(table.values, table.kinds), lines)):
        part = trace[lo:lo + max(n, 0)]
        lo += len(part)
        t, span = part.times_s, (as_seconds(start), as_seconds(end))
        found = int(np.count_nonzero(
            (part.device_id == device_id) & (t >= span[0]) & (t <= span[1])
            & (part.activity == ACTIVITIES.index(activity))))
        if n < 1 or found != n:
            problem = f"reconstructed {found} points, expected {n}"
        elif (t[0], t[-1]) != span:
            problem = (f"reconstructed points from {from_seconds(t[0])} to "
                       f"{from_seconds(t[-1])}, expected {start} to {end}")
        else:
            segments.append(ActivitySegment(segment_id, device_id, activity, part))
            continue
        raise IngestError(f"segment {segment_id}: {problem}; filtered table "
                          "does not match", path=path, line=line)
    if lo != len(trace):
        raise IngestError(f"{len(trace) - lo} point(s) of the filtered table "
                          "lie in no segment; filtered table does not match",
                          path=path)
    return segments
