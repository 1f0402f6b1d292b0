import random
from datetime import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripmatch import segmentation
from tripmatch.ingest import IngestError
from tripmatch.segmentation import (
    load_segments_csv,
    overlap,
    vehicular_candidates,
    write_segments_csv,
)
from tripmatch.types import (
    Activity,
    ActivitySegment,
    FilteredPoint,
    LineType,
    ManualTrip,
    TraceColumns,
    from_seconds,
    seconds_between,
)

from conftest import at, fp, segment_of, segment_rows


def build_segments(points, max_gap_s=segmentation.DEFAULT_MAX_GAP_S):
    return segmentation.build_segments(TraceColumns.from_points(points),
                                       max_gap_s)


def trip(dep_s, arr_s, device_id=1, line_type=LineType.SUBWAY, name=""):
    return ManualTrip(device_id=device_id, line_type=line_type, line_name=name,
                      vehicle_dep_time=at(dep_s), vehicle_arr_time=at(arr_s))


def test_walk_vehicle_walk_gives_three_segments():
    points = [fp(0, Activity.WALKING), fp(10, Activity.WALKING),
              fp(20, Activity.IN_VEHICLE), fp(30, Activity.IN_VEHICLE),
              fp(40, Activity.WALKING)]
    segments = build_segments(points)
    assert [s.activity for s in segments] == [
        Activity.WALKING, Activity.IN_VEHICLE, Activity.WALKING]
    assert [s.segment_id for s in segments] == [1, 2, 3]


def test_gap_splits_segment():
    points = [fp(0, Activity.IN_VEHICLE), fp(7200, Activity.IN_VEHICLE)]
    assert len(build_segments(points, max_gap_s=300)) == 2
    assert len(build_segments(points, max_gap_s=7200)) == 1


def test_ids_assigned_per_device_in_time_order():
    points = [fp(100, Activity.WALKING, device_id=2),
              fp(0, Activity.WALKING, device_id=1),
              fp(50, Activity.IN_VEHICLE, device_id=1)]
    segments = build_segments(points)
    assert [(s.segment_id, s.device_id) for s in segments] == [
        (1, 1), (2, 1), (3, 2)]


def test_segment_times_equal_first_last_points():
    points = [fp(0, Activity.WALKING), fp(25, Activity.WALKING)]
    [seg] = build_segments(points)
    assert seg.start_time == at(0)
    assert seg.end_time == at(25)
    assert seg.duration_s == 25.0


def test_candidates_require_in_vehicle_and_two_points():
    segments = build_segments([
        fp(0, Activity.WALKING), fp(10, Activity.WALKING),
        fp(20, Activity.IN_VEHICLE),                       # single point
        fp(400, Activity.IN_VEHICLE), fp(410, Activity.IN_VEHICLE),
    ])
    candidates = vehicular_candidates(segments)
    assert len(candidates) == 1
    assert len(candidates[0].trace) == 2


def test_all_walking_has_no_candidates():
    segments = build_segments([fp(0, Activity.WALKING),
                               fp(10, Activity.WALKING)])
    assert vehicular_candidates(segments) == []


def test_overlap_example_from_logged_data():
    # segment 13:14:01-13:31:34 vs trip 13:14:34-13:30:03 -> 929 s
    seg = segment_of([
        FilteredPoint(datetime(2016, 8, 26, 13, 14, 1), 2, 60.17, 24.94,
                      Activity.IN_VEHICLE),
        FilteredPoint(datetime(2016, 8, 26, 13, 31, 34), 2, 60.17, 24.94,
                      Activity.IN_VEHICLE)])
    t = ManualTrip(device_id=2, line_type=LineType.SUBWAY, line_name="To west",
                   vehicle_dep_time=datetime(2016, 8, 26, 13, 14, 34),
                   vehicle_arr_time=datetime(2016, 8, 26, 13, 30, 3))
    hit, seconds = overlap(seg, t)
    assert hit
    assert seconds == pytest.approx(929.0)


def test_disjoint_intervals_do_not_overlap():
    seg = segment_of([fp(0, Activity.IN_VEHICLE), fp(100, Activity.IN_VEHICLE)])
    assert overlap(seg, trip(200, 300)) == (False, 0.0)


def test_touching_endpoints_count_as_overlap():
    seg = segment_of([fp(0, Activity.IN_VEHICLE), fp(100, Activity.IN_VEHICLE)])
    hit, seconds = overlap(seg, trip(100, 200))
    assert hit
    assert seconds == 0.0


def test_overlap_without_trip_times_is_false():
    seg = segment_of([fp(0, Activity.IN_VEHICLE), fp(100, Activity.IN_VEHICLE)])
    bare = ManualTrip(device_id=1, line_type=LineType.SUBWAY, line_name="",
                      vehicle_dep_time=None, vehicle_arr_time=None)
    assert overlap(seg, bare) == (False, 0.0)


_activities = st.sampled_from([Activity.WALKING, Activity.IN_VEHICLE,
                               Activity.ON_BICYCLE, Activity.STILL])


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 3), st.integers(0, 5000), _activities),
                min_size=1, max_size=60),
       st.integers(30, 1200))
def test_segments_partition_each_device_stream(raw, max_gap_s):
    points = [fp(t, a, device_id=d) for d, t, a in raw]
    segments = build_segments(points, max_gap_s=max_gap_s)
    for device_id in {p.device_id for p in points}:
        stream = sorted((p for p in points if p.device_id == device_id),
                        key=lambda p: (p.time, p.lat, p.lng))
        rebuilt = [p for s in segments if s.device_id == device_id
                   for p in s.trace]
        assert sorted(rebuilt, key=lambda p: (p.time, p.lat, p.lng)) == stream
    # no two segments of one device overlap in time
    by_device = {}
    for s in segments:
        by_device.setdefault(s.device_id, []).append(s)
    for stream in by_device.values():
        stream.sort(key=lambda s: s.start_time)
        for a, b in zip(stream, stream[1:]):
            assert a.end_time <= b.start_time


def test_csv_round_trip(tmp_path):
    rng = random.Random(3)
    points = [fp(20 * i + rng.randint(0, 5), rng.choice([
        Activity.WALKING, Activity.IN_VEHICLE]), device_id=rng.choice([1, 2]))
        for i in range(80)]
    trace = TraceColumns.from_points(points)
    segments = segmentation.build_segments(trace)
    path = tmp_path / "segments.csv"
    write_segments_csv(segments, path)
    reloaded = load_segments_csv(path, trace)
    assert segment_rows(reloaded) == segment_rows(segments)


def test_single_point_segment_allowed_but_empty_rejected():
    seg = segment_of([fp(0, Activity.IN_VEHICLE)])
    assert seg.duration_s == 0.0
    with pytest.raises(ValueError):
        ActivitySegment(1, 1, Activity.IN_VEHICLE, TraceColumns.from_points([]))



def test_segment_times_are_its_first_and_last_trace_times():
    seg = segment_of([fp(5, Activity.IN_VEHICLE), fp(65, Activity.IN_VEHICLE),
                      fp(130, Activity.IN_VEHICLE)])
    assert seg.start_time == from_seconds(seg.trace.times_s[0]) == at(5)
    assert seg.end_time == from_seconds(seg.trace.times_s[-1]) == at(130)
    # computed once: a second access returns the same object
    assert seg.start_time is seg.start_time and seg.end_time is seg.end_time
    assert seg.duration_s == 125.0
    assert seg.midpoint_time == at(67.5)

def reference_segments(points, max_gap_s):
    """The per-point loop that built segments before they were column
    slices: each device's points in ascending device_id order, stably sorted
    by time, cut on an activity change or a gap over max_gap_s."""
    by_device = {}
    for p in points:
        by_device.setdefault(p.device_id, []).append(p)
    runs = []
    for device_id in sorted(by_device):
        run = []
        for p in sorted(by_device[device_id], key=lambda p: p.time):
            if run and (p.activity != run[-1].activity or
                        seconds_between(run[-1].time, p.time) > max_gap_s):
                runs.append(run)
                run = []
            run.append(p)
        if run:
            runs.append(run)
    return [(i, run[0].device_id, run[0].activity, run)
            for i, run in enumerate(runs, 1)]


@st.composite
def _device_tables(draw):
    """Rows of devices 1-3 in shuffled file order, each device's clock
    advancing by 0 s (a shared timestamp), 1 s, max_gap_s or max_gap_s + 1;
    a distinct latitude per row makes each row identifiable."""
    max_gap_s = draw(st.integers(30, 600))
    steps = st.sampled_from([0, 1, max_gap_s, max_gap_s + 1])
    drawn = draw(st.lists(st.tuples(st.integers(1, 3), steps, _activities),
                          max_size=40))
    clock = {}
    points = []
    for i, (device_id, step, activity) in enumerate(drawn):
        clock[device_id] = clock.get(device_id, 0) + step
        points.append(fp(clock[device_id], activity, device_id=device_id,
                         lat=60.0 + i * 1e-4))
    order = draw(st.permutations(range(len(points))))
    return [points[i] for i in order], max_gap_s


@settings(max_examples=300, deadline=None)
@given(_device_tables())
def test_column_cut_agrees_with_per_point_loop(table):
    points, max_gap_s = table
    assert segment_rows(build_segments(points, max_gap_s)) == \
        reference_segments(points, max_gap_s)


def test_empty_table_has_no_segments():
    assert segmentation.build_segments(TraceColumns.from_points([])) == []


def test_reload_rebuilds_segments_that_share_a_timestamp(tmp_path):
    # one device repeats a timestamp with alternating activity: the closed
    # time range of each segment holds points of its neighbours
    points = [fp(0, Activity.WALKING), fp(10, Activity.WALKING),
              fp(10, Activity.IN_VEHICLE), fp(10, Activity.WALKING),
              fp(30, Activity.WALKING)]
    trace = TraceColumns.from_points(points)
    segments = segmentation.build_segments(trace)
    assert [len(s.trace) for s in segments] == [2, 1, 2]
    path = tmp_path / "segments.csv"
    write_segments_csv(segments, path)
    assert segment_rows(load_segments_csv(path, trace)) == segment_rows(segments)


@pytest.mark.parametrize("rows, message", [
    (lambda pts: pts[:-1], "segment 2: reconstructed 1 points, expected 2"),
    (lambda pts: pts[:1] + pts[2:], "segment 1: reconstructed 1 points, expected 2"),
    (lambda pts: pts + [fp(500, Activity.STILL)],
     "1 point(s) of the filtered table lie in no segment"),
    (lambda pts: pts[:1] + [fp(5, Activity.WALKING)] + pts[1:],
     "segment 1: reconstructed points from 2016-08-26 09:00:00 to "
     "2016-08-26 09:00:05, expected 2016-08-26 09:00:00 to 2016-08-26 09:00:10"),
])
def test_reload_refuses_a_filtered_table_that_differs(tmp_path, rows, message):
    points = [fp(0, Activity.WALKING), fp(10, Activity.WALKING),
              fp(20, Activity.IN_VEHICLE), fp(30, Activity.IN_VEHICLE)]
    path = tmp_path / "segments.csv"
    write_segments_csv(build_segments(points), path)
    with pytest.raises(IngestError) as err:
        load_segments_csv(path, TraceColumns.from_points(rows(points)))
    assert message in str(err.value)
    assert str(err.value).endswith("filtered table does not match")
