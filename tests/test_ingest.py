import csv
import io
import re
from datetime import date, datetime
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import RowError, cell, loader_outcome, reference_table, scan_input
from tripmatch import ingest
from tripmatch.ingest import (
    FILTERED_COLUMNS,
    MANUAL_LOG_ALL_COLUMNS,
    TRANSIT_LIVE_COLUMNS,
    IngestError,
    format_timestamp,
    parse_timestamp,
)
from tripmatch.gtfs import Clocks
from tripmatch.segmentation import build_segments
from tripmatch.types import (
    ACTIVITIES,
    LIVE_LINE_TYPES,
    LOG_LINE_TYPES,
    Activity,
    DevicePoint,
    FilteredPoint,
    LineType,
)

DEVICE_HEADER = ("time,device_id,lat,lng,accuracy,activity_1,activity_1_conf,"
                 "activity_2,activity_2_conf,activity_3,activity_3_conf")
FILTERED_HEADER = "time,device_id,lat,lng,activity"
LIVE_HEADER = "time,lat,lng,line_type,line_name,vehicle_ref"
MANUAL_HEADER = ("device_id,st_entrance,st_entry_time,line_type,line_name,"
                 "vehicle_dep_time,vehicle_dep_stop,vehicle_arr_time,"
                 "vehicle_arr_stop,st_exit_location,st_exit_time,comments")


def write(tmp_path, name, *lines):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# --- device data ---

def test_device_data_parses_and_sorts(tmp_path):
    path = write(tmp_path, "d.csv", DEVICE_HEADER,
                 "2016-08-26 09:00:10,2,60.17,24.94,20,STILL,90,UNKNOWN,10,,",
                 "2016-08-26 09:00:00,1,60.17,24.94,12.5,IN_VEHICLE,75,WALKING,20,STILL,5",
                 "2016-08-26 09:00:10,1,60.18,24.95,8,WALKING,100,,,,")
    points = ingest.load_device_data(path)
    assert [(p.time.second, p.device_id) for p in points] == [(0, 1), (10, 1), (10, 2)]
    assert points[0].activities == ((Activity.IN_VEHICLE, 75),
                                    (Activity.WALKING, 20), (Activity.STILL, 5))
    assert points[0].top_activity is Activity.IN_VEHICLE
    assert points[2].accuracy == 20.0


def test_device_data_header_only(tmp_path):
    assert ingest.load_device_data(write(tmp_path, "d.csv", DEVICE_HEADER)) == []


def test_device_data_missing_lng_names_line_and_column(tmp_path):
    path = write(tmp_path, "d.csv", DEVICE_HEADER,
                 "2016-08-26 09:00:00,1,60.17,24.94,20,STILL,90,,,,",
                 "2016-08-26 09:00:10,1,60.17,,20,STILL,90,,,,",
                 "2016-08-26 09:00:20,1,60.17,24.94,20,STILL,90,,,,")
    with pytest.raises(IngestError) as err:
        ingest.load_device_data(path)
    assert err.value.line == 3
    assert err.value.column == "lng"


def test_device_data_unknown_activity_rejected(tmp_path):
    path = write(tmp_path, "d.csv", DEVICE_HEADER,
                 "2016-08-26 09:00:00,1,60.17,24.94,20,FLYING,90,,,,")
    with pytest.raises(IngestError, match="FLYING"):
        ingest.load_device_data(path)


def test_device_data_out_of_range_coordinate(tmp_path):
    path = write(tmp_path, "d.csv", DEVICE_HEADER,
                 "2016-08-26 09:00:00,1,95.0,24.94,20,STILL,90,,,,")
    with pytest.raises(IngestError, match="latitude"):
        ingest.load_device_data(path)


def test_device_data_increasing_confidence_rejected(tmp_path):
    path = write(tmp_path, "d.csv", DEVICE_HEADER,
                 "2016-08-26 09:00:00,1,60.17,24.94,20,STILL,30,WALKING,80,,")
    with pytest.raises(IngestError, match="increase"):
        ingest.load_device_data(path)


def test_device_data_permissive_skips_and_reports(tmp_path):
    path = write(tmp_path, "d.csv", DEVICE_HEADER,
                 "2016-08-26 09:00:00,1,60.17,24.94,20,STILL,90,,,,",
                 "2016-08-26 09:00:10,1,60.17,,20,STILL,90,,,,")
    diagnostics = []
    points = ingest.load_device_data(path, permissive=True,
                                     diagnostics=diagnostics)
    assert len(points) == 1
    assert any("line 3" in d for d in diagnostics)


def test_device_data_missing_file(tmp_path):
    with pytest.raises(IngestError, match="not found"):
        ingest.load_device_data(tmp_path / "nope.csv")


def test_device_data_header_mismatch(tmp_path):
    path = write(tmp_path, "d.csv", "time,device_id,lat", "x,y,z")
    with pytest.raises(IngestError, match="missing required column"):
        ingest.load_device_data(path)


# --- filtered data ---

def test_filtered_parses(tmp_path):
    path = write(tmp_path, "f.csv", FILTERED_HEADER,
                 "2016-08-26 09:00:00,1,60.17,24.94,IN_VEHICLE")
    points = ingest.load_filtered_data(path)
    assert list(points) == [FilteredPoint(datetime(2016, 8, 26, 9, 0, 0), 1,
                                          60.17, 24.94, Activity.IN_VEHICLE)]


def test_filtered_header_only(tmp_path):
    trace = ingest.load_filtered_data(write(tmp_path, "f.csv", FILTERED_HEADER))
    assert len(trace) == 0
    assert [(c.dtype, c.shape) for c in (trace.times_s, trace.device_id,
                                         trace.lats, trace.lngs, trace.activity)] \
        == [(np.dtype(t), (0,)) for t in ("f8", "i8", "f8", "f8", "i1")]
    assert build_segments(trace) == []


def test_filtered_columns_have_their_dtypes(tmp_path):
    trace = ingest.load_filtered_data(write(
        tmp_path, "f.csv", FILTERED_HEADER,
        "2016-08-26 09:00:10,7,60.17,24.94,WALKING",
        "2016-08-26 09:00:00,7,60.18,24.95,IN_VEHICLE"))
    assert [c.dtype for c in (trace.times_s, trace.device_id, trace.lats,
                              trace.lngs, trace.activity)] == \
        [np.float64, np.int64, np.float64, np.float64, np.int8]
    assert trace.activity.tolist() == [ACTIVITIES.index(Activity.IN_VEHICLE),
                                       ACTIVITIES.index(Activity.WALKING)]


def test_filtered_device_id_beyond_int64_is_located(tmp_path):
    path = write(tmp_path, "f.csv", FILTERED_HEADER,
                 "2016-08-26 09:00:00,1,60.17,24.94,STILL",
                 f"2016-08-26 09:00:10,{2 ** 63},60.17,24.94,STILL")
    with pytest.raises(IngestError) as err:
        ingest.load_filtered_data(path)
    assert str(err.value) == (f"{path}: line 3: column 'device_id': "
                              f"{2 ** 63} out of the int64 range")


def test_filtered_permissive_skips_a_bad_row_and_counts_shared_keys(tmp_path):
    path = write(tmp_path, "f.csv", FILTERED_HEADER,
                 "2016-08-26 09:00:00,1,60.17,24.94,STILL",
                 "2016-08-26 09:00:00,1,60.17,24.94,WALKING",
                 "2016-08-26 09:00:00,1,95,24.94,WALKING",
                 "2016-08-26 09:00:00,2,60.17,24.94,WALKING",
                 "2016-08-26 09:00:01,1,60.17,24.94,WALKING",
                 "2016-08-26 09:00:00,1,60.17,24.94,STILL")
    diagnostics = []
    trace = ingest.load_filtered_data(path, permissive=True,
                                      diagnostics=diagnostics)
    assert [(p.device_id, p.time.second, p.activity) for p in trace] == [
        (1, 0, Activity.STILL), (1, 0, Activity.WALKING), (1, 0, Activity.STILL),
        (1, 1, Activity.WALKING), (2, 0, Activity.WALKING)]
    assert diagnostics == [
        f"skipped row: {path}: line 4: column 'lat': latitude 95.0 out of "
        "range [-90, 90]",
        "2 row(s) share a (time, device_id) key"]


def test_filtered_unknown_activity_names_value(tmp_path):
    path = write(tmp_path, "f.csv", FILTERED_HEADER,
                 "2016-08-26 09:00:00,1,60.17,24.94,FLYING")
    with pytest.raises(IngestError, match="'FLYING'"):
        ingest.load_filtered_data(path)


def test_filtered_csv_error_is_located(tmp_path):
    path = write(tmp_path, "f.csv", FILTERED_HEADER,
                 "2016-08-26 09:00:00,1,60.17,24.94,STILL",
                 f'2016-08-26 09:00:10,1,60.17,24.94,"{"x" * 200_000}"')
    with pytest.raises(IngestError) as err:
        ingest.load_filtered_data(path)
    assert str(err.value) == (f"{path}: line 3: field larger than field limit "
                              f"({csv.field_size_limit()})")


def test_filtered_output_time_ordered(tmp_path):
    # each device's rows in time order, devices in ascending device_id
    rows = [f"2016-08-26 09:00:{s:02d},{d},60.17,24.94,WALKING"
            for s, d in [(30, 1), (10, 2), (10, 1), (0, 3)]]
    points = ingest.load_filtered_data(write(tmp_path, "f.csv",
                                             FILTERED_HEADER, *rows))
    keys = [(p.device_id, p.time) for p in points]
    assert keys == sorted(keys)


# --- transit live ---

def test_transit_live_parses_ferry(tmp_path):
    path = write(tmp_path, "t.csv", LIVE_HEADER,
                 "2016-08-26 09:00:00,60.15,24.96,FERRY,19,veh1")
    rows = list(ingest.load_transit_live(path))
    assert rows[0].line_type is LineType.FERRY
    assert rows[0].vehicle_ref == "veh1"


def test_transit_live_header_only_has_float_times(tmp_path):
    fleet = ingest.load_transit_live(write(tmp_path, "t.csv", LIVE_HEADER))
    assert len(fleet) == 0 and fleet.times_s.dtype == np.float64


def test_transit_live_unknown_line_type(tmp_path):
    path = write(tmp_path, "t.csv", LIVE_HEADER,
                 "2016-08-26 09:00:00,60.15,24.96,ZEPPELIN,19,veh1")
    with pytest.raises(IngestError, match="ZEPPELIN"):
        ingest.load_transit_live(path)


def test_transit_live_duplicates_kept_and_flagged(tmp_path):
    row = "2016-08-26 09:00:00,60.15,24.96,BUS,16,veh1"
    path = write(tmp_path, "t.csv", LIVE_HEADER, row, row)
    diagnostics = []
    rows = ingest.load_transit_live(path, diagnostics=diagnostics)
    assert len(rows) == 2
    assert any("duplicate" in d for d in diagnostics)


def test_transit_live_empty_vehicle_ref_rejected(tmp_path):
    path = write(tmp_path, "t.csv", LIVE_HEADER,
                 "2016-08-26 09:00:00,60.15,24.96,BUS,16,")
    with pytest.raises(IngestError):
        ingest.load_transit_live(path)


# --- manual log ---

def test_manual_log_parses_and_counts_car(tmp_path):
    path = write(tmp_path, "m.csv", MANUAL_HEADER,
                 "1,A,2016-08-26 09:00:00,SUBWAY,,2016-08-26 09:05:00,plat 1,"
                 "2016-08-26 09:15:00,plat 2,B,2016-08-26 09:17:00,ok",
                 "7,,,CAR,,2016-08-26 10:00:00,,2016-08-26 10:20:00,,,,")
    trips = ingest.load_manual_log(path)
    assert len(trips) == 2
    assert trips[0].line_type is LineType.SUBWAY
    assert trips[0].line_name == ""
    assert trips[0].start == datetime(2016, 8, 26, 9, 5)
    assert trips[1].line_type is LineType.CAR


def test_manual_log_dep_after_arr_rejected(tmp_path):
    path = write(tmp_path, "m.csv", MANUAL_HEADER,
                 "1,,,BUS,16,2016-08-26 10:30:00,,2016-08-26 10:00:00,,,,")
    with pytest.raises(IngestError, match="after"):
        ingest.load_manual_log(path)


def test_manual_log_bad_timestamp_rejected(tmp_path):
    path = write(tmp_path, "m.csv", MANUAL_HEADER,
                 "1,,,BUS,16,yesterday,,2016-08-26 10:00:00,,,,")
    with pytest.raises(IngestError, match="timestamp"):
        ingest.load_manual_log(path)


def test_manual_log_clock_times_resolve_against_date(tmp_path):
    path = write(tmp_path, "m.csv", MANUAL_HEADER,
                 "1,,,BUS,16,09:07:00,,09:20:00,,,,")
    trips = ingest.load_manual_log(path, default_date=date(2016, 8, 26))
    assert trips[0].vehicle_dep_time == datetime(2016, 8, 26, 9, 7)


# --- device models / trains ---

def test_device_models_unique(tmp_path):
    path = write(tmp_path, "dm.csv", "device_id,model", "1,Pixel", "1,Pixel")
    with pytest.raises(IngestError, match="duplicate"):
        ingest.load_device_models(path)


def test_device_models_missing_id_names_column(tmp_path):
    path = write(tmp_path, "dm.csv", "device_id,model", ",Pixel")
    with pytest.raises(IngestError) as info:
        ingest.load_device_models(path)
    assert info.value.line == 2
    assert info.value.column == "device_id"
    assert str(info.value).endswith("column 'device_id': missing value")


def test_device_models_permissive_skips_missing_id(tmp_path):
    path = write(tmp_path, "dm.csv", "device_id,model", ",Pixel", "2,Nexus")
    diagnostics = []
    entries = ingest.load_device_models(path, permissive=True,
                                        diagnostics=diagnostics)
    assert [e.device_id for e in entries] == [2]
    assert diagnostics == [
        f"skipped row: {path}: line 2: column 'device_id': missing value"]


def test_train_stops_counts_records(tmp_path):
    path = tmp_path / "trains.json"
    path.write_text('[{"trainNumber": 1}, {"trainNumber": 2}]', encoding="utf-8")
    assert ingest.load_train_stops(path).train_count == 2


def test_train_stops_empty_object(tmp_path):
    path = tmp_path / "trains.json"
    path.write_text("{}", encoding="utf-8")
    assert ingest.load_train_stops(path).train_count == 0


def test_train_stops_truncated_reports_offset(tmp_path):
    path = tmp_path / "trains.json"
    path.write_text('[{"trainNumber": 1}', encoding="utf-8")
    with pytest.raises(IngestError, match="byte offset"):
        ingest.load_train_stops(path)


# --- round-trip property ---

_activity = st.sampled_from(list(Activity))
_times = st.integers(0, 86_399).map(
    lambda s: datetime(2016, 8, 26) .replace(hour=s // 3600,
                                             minute=s % 3600 // 60,
                                             second=s % 60))
_lat = st.decimals(min_value="59.0", max_value="61.0", places=6).map(float)
_lng = st.decimals(min_value="24.0", max_value="26.0", places=6).map(float)


def _device_point(draw_time, device_id, lat, lng, accuracy, ranked):
    ranked = tuple(sorted(ranked, key=lambda kv: -kv[1]))[:3]
    return DevicePoint(draw_time, device_id, lat, lng, accuracy, ranked)


_device_points = st.builds(
    _device_point, _times, st.integers(1, 9), _lat, _lng,
    st.decimals(min_value="0", max_value="2000", places=1).map(float),
    st.lists(st.tuples(_activity, st.integers(0, 100)), min_size=1, max_size=3,
             unique_by=lambda kv: kv[0]),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(_device_points, max_size=12))
def test_device_data_round_trip(tmp_path_factory, points):
    path = tmp_path_factory.mktemp("rt") / "d.csv"
    ingest.write_device_data(points, path)
    reloaded = ingest.load_device_data(path)
    assert reloaded == sorted(points, key=lambda p: (p.time, p.device_id))


_filtered_points = st.builds(FilteredPoint, _times, st.integers(1, 9),
                             _lat, _lng, _activity)


@settings(max_examples=100, deadline=None)
@given(st.lists(_filtered_points, max_size=12))
def test_filtered_round_trip(tmp_path_factory, points):
    path = tmp_path_factory.mktemp("rt") / "f.csv"
    ingest.write_filtered_data(points, path)
    assert list(ingest.load_filtered_data(path)) == sorted(
        points, key=lambda p: (p.device_id, p.time))


from tripmatch.types import ManualTrip, VehiclePosition  # noqa: E402

_live_rows = st.builds(
    VehiclePosition, _times, _lat, _lng,
    st.sampled_from([LineType.SUBWAY, LineType.BUS, LineType.TRAM,
                     LineType.TRAIN, LineType.FERRY]),
    st.text(alphabet="0123456789ABKMTV", max_size=4),
    st.text(alphabet="abcdef0123456789", min_size=1, max_size=8),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(_live_rows, max_size=12))
def test_transit_live_round_trip(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("rt") / "t.csv"
    ingest.write_transit_live(rows, path)
    assert list(ingest.load_transit_live(path)) == rows  # file order preserved


def _manual_trip(device_id, line_type, name, times, texts):
    dep, arr = sorted(times[:2])
    return ManualTrip(device_id=device_id, line_type=line_type, line_name=name,
                      vehicle_dep_time=dep, vehicle_arr_time=arr,
                      st_entrance=texts[0], st_entry_time=times[2],
                      vehicle_dep_stop=texts[1], vehicle_arr_stop=texts[2],
                      st_exit_location=texts[3], st_exit_time=None,
                      comments=texts[4])


_manual_trips = st.builds(
    _manual_trip, st.integers(1, 9),
    st.sampled_from([LineType.SUBWAY, LineType.BUS, LineType.TRAM,
                     LineType.TRAIN, LineType.CAR]),
    st.text(alphabet="0123456789ABKMTVtowes ", max_size=8).map(str.strip),
    st.tuples(_times, _times, _times),
    st.tuples(*[st.text(alphabet="abc xyz19", max_size=10).map(str.strip)] * 5),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(_manual_trips, max_size=10))
def test_manual_log_round_trip(tmp_path_factory, trips):
    path = tmp_path_factory.mktemp("rt") / "m.csv"
    ingest.write_manual_log(trips, path)
    assert ingest.load_manual_log(path) == trips


# --- every loader agrees with a row-by-row csv.DictReader reference ---

_DAY = date(2016, 8, 26)
_LIVE_TYPES = ["SUBWAY", "BUS", "TRAM", "TRAIN", "FERRY"]


def _ref_time(value):
    return parse_timestamp(value, default_date=_DAY)


def _ref_coordinate(noun, bound):
    def parse(value):
        number = float(value)
        if not -bound <= number <= bound:
            raise ValueError(f"{noun} {number} out of range [-{bound}, {bound}]")
        return number
    return parse


_ref_lat = _ref_coordinate("latitude", 90)
_ref_lng = _ref_coordinate("longitude", 180)


def _ref_line_type(allowed):
    def parse(value):
        try:
            line_type = LineType(value)
        except ValueError:
            raise ValueError(f"unknown line_type {value!r}") from None
        if line_type not in allowed:
            raise ValueError(f"line_type {value!r} not allowed here")
        return line_type
    return parse


def _ref_activity(value):
    try:
        return Activity(value)
    except ValueError:
        raise ValueError(f"unknown activity kind {value!r}") from None


def _ref_live_row(cells):
    return VehiclePosition(
        cell(cells, "time", _ref_time), cell(cells, "lat", _ref_lat),
        cell(cells, "lng", _ref_lng),
        cell(cells, "line_type", _ref_line_type(LIVE_LINE_TYPES)),
        cell(cells, "line_name", required=False), cell(cells, "vehicle_ref"))


def _reference_live(path, permissive):
    """reference_table of transit_live.csv with the loader's diagnostics on
    the rows it keeps."""
    outcome = reference_table(path, _ref_live_row, permissive=permissive)
    if outcome[0] == "error":
        return outcome
    rows, diagnostics = outcome
    dupes = len(rows) - len(set(rows))
    if dupes:
        diagnostics.append(f"{dupes} duplicate identical row(s) retained")
    return rows, diagnostics


def _load_live(path, permissive=False):
    return loader_outcome(lambda diagnostics: ingest.load_transit_live(
        path, diagnostics=diagnostics, default_date=_DAY,
        permissive=permissive))


def _stamp(t: datetime, form: str) -> str:
    return {"plain": t.isoformat(" "), "iso": t.isoformat(),
            "clock": t.time().isoformat()}[form]


_live_cells = st.tuples(
    st.datetimes().map(lambda t: t.replace(microsecond=0)),
    st.sampled_from(["plain"] * 4 + ["iso", "clock"]),
    st.decimals(min_value="59.0", max_value="61.0", places=5).map(str),
    st.decimals(min_value="24.0", max_value="26.0", places=5).map(str),
    st.sampled_from(_LIVE_TYPES), st.sampled_from(["", "16", "550", "M1"]),
    st.sampled_from(["a1", "b2", "c3"]),
)


def _live_lines(draw_rows, pads):
    """CSV lines for drawn rows; a row drawn twice is a duplicate, and a
    padded cell gets surrounding blanks."""
    lines = []
    for (t, form, lat, lng, lt, name, ref), pad in zip(draw_rows, pads):
        cells = [_stamp(t, form), lat, lng, lt, name, ref]
        lines.append(",".join(f" {c} " if pad == i else c
                              for i, c in enumerate(cells)))
    return lines


@settings(max_examples=150, deadline=None)
@given(st.data(), st.lists(_live_cells, max_size=15), st.booleans())
def test_columnar_loader_agrees_with_row_path(tmp_path_factory, data, rows,
                                               crlf):
    rows = rows + data.draw(st.lists(st.sampled_from(rows), max_size=3)
                            if rows else st.just([]))
    pads = data.draw(st.lists(st.integers(-1, 5), min_size=len(rows),
                              max_size=len(rows)))
    eol = "\r\n" if crlf else "\n"
    path = tmp_path_factory.mktemp("cols") / "t.csv"
    path.write_text(eol.join([LIVE_HEADER] + _live_lines(rows, pads)) + eol,
                    encoding="utf-8")
    loaded = _load_live(path)
    assert loaded == _reference_live(path, permissive=False)
    positions, diagnostics = loaded
    dupes = len(positions) - len(set(positions))
    assert (f"{dupes} duplicate identical row(s) retained" in diagnostics) \
        == bool(dupes)


_BAD_CELLS = {
    "time": ["2016-02-30 10:00:00", "2016-08-26 24:00:00",
             "2016-08-26 10:00:60", "0000-01-01 00:00:00",
             "2016-08-26 10:00:0x", "10:00", ""],
    "lat": ["90.5", "nan", "x", ""],
    "lng": ["-180.5", "inf", "1e", ""],
    "line_type": ["CAR", "ZEPPELIN", "bus", ""],
    "line_name": ['1"6', " "],
    "vehicle_ref": ["", "  "],
}


@pytest.mark.parametrize("column,bad", [(c, v) for c, values in _BAD_CELLS.items()
                                        for v in values])
@settings(max_examples=20, deadline=None)
@given(st.data(), st.lists(_live_cells.map(lambda r: (r[0], "plain", *r[2:])),
                           min_size=1, max_size=10), st.booleans())
def test_corrupt_cell_fails_alike_on_both_paths(tmp_path_factory, column, bad,
                                                data, rows, permissive):
    lines = _live_lines(rows, [-1] * len(rows))
    k = data.draw(st.integers(0, len(lines) - 1))
    cells = lines[k].split(",")
    cells[TRANSIT_LIVE_COLUMNS.index(column)] = bad
    lines[k] = ",".join(cells)
    path = tmp_path_factory.mktemp("bad") / "t.csv"
    path.write_text("\n".join([LIVE_HEADER] + lines) + "\n", encoding="utf-8")
    loaded = _load_live(path, permissive)
    assert loaded == _reference_live(path, permissive)
    if column != "line_name" and not permissive:
        assert loaded[0] == "error" and loaded[1] == k + 2


def _write_table(path, header, rows, layout):
    """rows under header as CSV text laid out as drawn: padded cells, any
    quoting, CRLF line ends, a BOM and blank lines between rows."""
    pad, quoting, eol, bom, blank_every, _ = layout
    lines = io.StringIO(newline="")
    writer = csv.writer(lines, quoting=quoting, lineterminator=eol)
    writer.writerow(header)
    for k, row in enumerate(rows):
        writer.writerow([pad + c + pad if c else c for c in row])
        if blank_every and k % blank_every == 0:
            lines.write(eol)
    path.write_bytes((("\ufeff" if bom else "") + lines.getvalue()).encode("utf-8"))


_layouts = st.tuples(st.sampled_from(["", " "]),
                     st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]),
                     st.sampled_from(["\n", "\r\n"]), st.booleans(),
                     st.sampled_from([0, 2, 5]),
                     st.sampled_from([1, 100, 1 << 20]))  # bytes per chunk


def _load(load, layout):
    """loader_outcome of load, reading chunks of the drawn size."""
    with mock.patch.object(ingest, "_CHUNK_BYTES", layout[-1]):
        return loader_outcome(load)


def _mixed(good, bad):
    """Mostly good cells, sometimes a bad one."""
    return st.one_of(good, good, good, st.sampled_from(bad))


_stamps = _times.map(format_timestamp)
_filtered_rows = st.lists(st.one_of(st.tuples(
    _mixed(_stamps, ["", "2016-08-26 25:00:00", "09:00:00", "noon"]),
    _mixed(st.integers(1, 9).map(str), ["", "x", "1.5"]),
    _mixed(_lat.map(repr), ["", "north", "91"]),
    _mixed(_lng.map(repr), ["", "-181", "1e"]),
    _mixed(_activity.map(lambda a: a.value), ["", "FLYING", "walking"]),
), st.sampled_from([("",) * 5, (" ",) * 5])), max_size=12)  # or a blank row


def _ref_filtered_row(cells):
    return FilteredPoint(cell(cells, "time", _ref_time),
                         cell(cells, "device_id", int),
                         cell(cells, "lat", _ref_lat), cell(cells, "lng", _ref_lng),
                         cell(cells, "activity", _ref_activity))


@settings(max_examples=100, deadline=None)
@given(_filtered_rows, _layouts, st.booleans())
def test_filtered_loader_agrees_with_reference(tmp_path_factory, rows, layout,
                                              permissive):
    path = tmp_path_factory.mktemp("ref") / "f.csv"
    _write_table(path, FILTERED_COLUMNS, rows, layout)
    loaded = _load(lambda diagnostics: ingest.load_filtered_data(
        path, permissive=permissive, diagnostics=diagnostics, default_date=_DAY),
        layout)
    expected = reference_table(path, _ref_filtered_row, permissive=permissive)
    if expected[0] != "error":
        points, diagnostics = expected
        points.sort(key=lambda p: (p.device_id, p.time))
        dupes = len(points) - len({(p.time, p.device_id) for p in points})
        if dupes:
            diagnostics.append(f"{dupes} row(s) share a (time, device_id) key")
    assert loaded == expected


_clock_or_blank = st.one_of(st.just(""), _stamps, _stamps.map(lambda s: s[11:]))
_manual_rows = st.lists(st.tuples(
    _mixed(st.integers(1, 9).map(str), ["", "one"]),
    st.sampled_from(["", "A", "gate 2"]), _mixed(_clock_or_blank, ["later"]),
    _mixed(st.sampled_from(["BUS", "TRAM", "SUBWAY", "TRAIN", "CAR"]),
           ["", "FERRY", "ZEPPELIN"]),
    st.sampled_from(["", "16", "M1"]), _mixed(_clock_or_blank, ["yesterday"]),
    st.sampled_from(["", "plat 1"]), _mixed(_clock_or_blank, ["25:00:00"]),
    st.sampled_from(["", "plat 2"]), st.sampled_from(["", "B"]),
    _mixed(_clock_or_blank, ["x"]), st.sampled_from(["", "ok", "a, b"]),
), max_size=10)


def _ref_manual_row(cells):
    def opt_time(column):
        return cell(cells, column, lambda v: _ref_time(v) if v else None,
                    required=False)

    device_id = cell(cells, "device_id", int)
    line_type = cell(cells, "line_type", _ref_line_type(LOG_LINE_TYPES))
    dep, arr = opt_time("vehicle_dep_time"), opt_time("vehicle_arr_time")
    entry, exit_ = opt_time("st_entry_time"), opt_time("st_exit_time")
    if dep is not None and arr is not None and dep > arr:
        raise RowError(f"vehicle_dep_time {format_timestamp(dep)} after "
                       f"vehicle_arr_time {format_timestamp(arr)}")
    return ManualTrip(device_id, line_type, cells["line_name"], dep, arr,
                      cells["st_entrance"], entry, cells["vehicle_dep_stop"],
                      cells["vehicle_arr_stop"], cells["st_exit_location"],
                      exit_, cells["comments"])


@settings(max_examples=100, deadline=None)
@given(_manual_rows, _layouts, st.booleans())
def test_manual_log_loader_agrees_with_reference(tmp_path_factory, rows,
                                                layout, permissive):
    path = tmp_path_factory.mktemp("ref") / "m.csv"
    _write_table(path, MANUAL_LOG_ALL_COLUMNS, rows, layout)
    loaded = _load(lambda diagnostics: ingest.load_manual_log(
        path, permissive=permissive, diagnostics=diagnostics, default_date=_DAY),
        layout)
    assert loaded == reference_table(path, _ref_manual_row, permissive=permissive)


# --- the byte decoders agree with the scalar parses ---


def _one_replaced(forms, chars: str, last: int):
    """forms with the character at one of positions 0..last replaced by
    one of chars."""
    return st.builds(lambda text, at, char: text[:at] + char + text[at + 1:],
                     forms, st.integers(0, last), st.sampled_from(chars))


_stamp_forms = st.datetimes().map(lambda t: t.replace(microsecond=0).isoformat(" "))
#: digits, separators swapped in, non-ASCII and fullwidth digits
_STAMP_CHARACTERS = "0123456789-: T/.٥２é"
_stamp_cells = st.one_of(
    _stamp_forms, _one_replaced(_stamp_forms, _STAMP_CHARACTERS, 18),
    st.builds(lambda text, resize: resize(text), _stamp_forms, st.sampled_from([
        lambda t: "", lambda t: t[12:], lambda t: t[11:],          # widths 0, 7, 8
        lambda t: t[:18], lambda t: t[1:], lambda t: t + "0",       # 18, 18, 20
        lambda t: " " + t, lambda t: t.replace(" ", "T"),           # 20, ISO
        lambda t: t.replace("-", ":"), lambda t: t[:10] + ":" + t[11:]])),
    st.sampled_from(["2016-02-29 23:59:59", "2015-02-29 00:00:00",
                     "1900-02-29 00:00:00", "2000-02-29 00:00:00",
                     "2016-04-31 00:00:00", "2016-13-01 00:00:00",
                     "2016-00-10 00:00:00", "2016-08-00 00:00:00",
                     "0000-01-01 00:00:00", "2016-08-26 24:00:00",
                     "2016-08-26 23:60:00", "2016-08-26 23:59:60"]),
    st.text(_STAMP_CHARACTERS, max_size=20))

_clock_forms = st.builds("{}:{:02d}:{:02d}".format, st.integers(0, 120),
                         st.integers(0, 99), st.integers(0, 99))
_CLOCK_CHARACTERS = "0123456789: +-_٥２é"
_clock_cells = st.one_of(
    _clock_forms, _one_replaced(_clock_forms, _CLOCK_CHARACTERS, 8),
    st.builds(lambda text, resize: resize(text), _clock_forms, st.sampled_from([
        lambda c: "", lambda c: " " + c, lambda c: c + "0", lambda c: "0" + c,
        lambda c: "2016-08-26 " + c, lambda c: c.replace(":", "-")])),
    st.text(_CLOCK_CHARACTERS, max_size=20))


#: each byte decoder's parse, its cells, and the form its scan takes
_DECODERS = {
    "stamp": (ingest.Stamps(_DAY), _stamp_cells,
              r"[0-9]{4}-[0-9]{2}-[0-9]{2} [0-9]{2}:[0-9]{2}:[0-9]{2}"),
    "clock": (Clocks(), _clock_cells, r"([0-9]?[0-9]:[0-5][0-9]:[0-5][0-9])?"),
}


def _scalar(parse, text):
    """parse of a stripped cell, or the message of its error."""
    try:
        return parse(text.strip()), None
    except (ValueError, IngestError) as exc:
        return None, str(exc)


@pytest.mark.parametrize("kind", ["stamp", "clock"])
@settings(max_examples=150, deadline=None)
@given(data=st.data(), eol=st.sampled_from(["\n", "\r\n"]), quoted=st.booleans(),
       chunk=st.sampled_from([1, 100, 1 << 20]))
def test_byte_decoders_agree_with_scalar_parses(kind, data, eol, quoted, chunk):
    """Every cell of a column read through read_table, in chunks of any size,
    plain or quoted and after an LF or a CRLF, parses as its scalar parse
    does; and the scan itself accepts exactly the cells of its fixed form,
    the first of them at byte 0, with the scalar parse's value."""
    parse, cells_of, form = _DECODERS[kind]
    cells = data.draw(st.lists(cells_of, min_size=1, max_size=30))
    text = io.StringIO(newline="")
    writer = csv.writer(text, lineterminator=eol,
                        quoting=csv.QUOTE_ALL if quoted else csv.QUOTE_MINIMAL)
    writer.writerow(["cell", "row"])
    writer.writerows([c, str(k)] for k, c in enumerate(cells))
    with mock.patch.object(ingest, "_CHUNK_BYTES", chunk):
        table = ingest.read_table(io.BytesIO(text.getvalue().encode()), "t.csv", [
            ingest.Column("cell", parse, required=False), ingest.Column("row")])
    expected = [_scalar(parse, c) for c in cells]
    assert {row: message for row, (message, _) in table.bad.items()} == {
        row: message for row, (_, message) in enumerate(expected)
        if message is not None}
    assert np.array_equal(table.data["cell"], [value for value, message in expected
                                               if message is None], equal_nan=True)

    values, ok = parse.scan(*scan_input(cells))
    assert ok.tolist() == [re.fullmatch(form, c) is not None
                           and expected[k][1] is None for k, c in enumerate(cells)]
    assert np.array_equal(values[ok], [expected[k][0] for k in np.flatnonzero(ok)],
                          equal_nan=True)


def test_one_padded_stamp_is_parsed_alone(tmp_path):
    """A padded stamp goes through parse_timestamp on its own, its chunk's
    other stamps staying in the byte scan."""
    rows = [f"2016-08-26 10:{k // 60:02d}:{k % 60:02d},60.1,24.9,BUS,16,v1"
            for k in range(200)]
    rows[57] = " " + rows[57]
    path = write(tmp_path, "t.csv", LIVE_HEADER, *rows)
    with mock.patch.object(ingest, "parse_timestamp",
                           wraps=ingest.parse_timestamp) as scalar:
        fleet = ingest.load_transit_live(path)
    assert scalar.call_count == 1
    assert scalar.call_args.args == ("2016-08-26 10:00:57",)
    assert np.diff(fleet.times_s).tolist() == [1.0] * 199


#: a byte that is not UTF-8 on line 3 of a table, on each of the reader's
#: paths: plain rows split on bytes, quoted rows read by csv.reader, and
#: the header (line 1)
_NOT_UTF8 = {
    "plain": ([LIVE_HEADER.encode(), b"2016-08-26 10:00:00,60.1,24.9,BUS,16,v1",
               b"2016-08-26 10:00:30,60.1,24.9,BUS,1\xff6,v1"], 3),
    "quoted": ([LIVE_HEADER.encode(), b'2016-08-26 10:00:00,60.1,24.9,BUS,"16",v1',
                b'2016-08-26 10:00:30,60.1,24.9,BUS,"1\xff6",v1'], 3),
    "header": ([LIVE_HEADER.encode() + b"\xff",
                b"2016-08-26 10:00:00,60.1,24.9,BUS,16,v1"], 1),
    "header after a BOM": ([b"\xef\xbb\xbf" + LIVE_HEADER.encode() + b"\xff",
                            b"2016-08-26 10:00:00,60.1,24.9,BUS,16,v1"], 1),
}


@pytest.mark.parametrize("permissive", [False, True])
@pytest.mark.parametrize("where", list(_NOT_UTF8))
@pytest.mark.parametrize("chunk", [1, 1 << 17])
def test_bytes_not_utf8_are_located(tmp_path, where, permissive, chunk):
    lines, line = _NOT_UTF8[where]
    path = tmp_path / "t.csv"
    path.write_bytes(b"\r\n".join(lines) + b"\r\n")
    with mock.patch.object(ingest, "_CHUNK_BYTES", chunk), \
            pytest.raises(IngestError) as err:
        ingest.load_transit_live(path, permissive=permissive)
    assert str(err.value) == (
        f"{path}: line {line}: byte 0xff is not UTF-8 (invalid start byte)")


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["", "a", " b ", "é", "1\r2", "1\r"]),
                          st.sampled_from(["", "c", "ö d"]),
                          st.sampled_from(["\n", "\r\n", "\r", "\r\r\n"])),
                max_size=8),
       st.sampled_from(["\n", "\r\n", "\r", "\r\r\n"]), st.booleans(),
       st.sampled_from([1, 5, 100, 1 << 20]),
       st.sampled_from(["a,b", 'a,"b\n"', '"a\r\n",b', 'a,"b\r"']))
def test_line_ends_read_as_csv_reader_reads_them(rows, head_eol, final_eol, chunk,
                                                 header):
    """Text cells and row lines under any mix of LF, CRLF and stray CRs, the
    last line with or without its end, after a header on one line or, with
    a quoted line end, on two, are those of csv.reader, or both fail on the
    same line."""
    text = header + head_eol + "".join(f"{a},{b}{eol}" for a, b, eol in rows)
    if rows and not final_eol:
        text = text[:-len(rows[-1][2])]
    expected = []
    try:
        reader = csv.reader(io.StringIO(text, newline=""))
        next(reader)
        for row in reader:
            if row:
                row = (row + ["", ""])[:2]
                expected.append((reader.line_num, *(c.strip() for c in row)))
    except csv.Error:
        expected.append(("error", reader.line_num))
    try:
        with mock.patch.object(ingest, "_CHUNK_BYTES", chunk):
            table = ingest.read_table(io.BytesIO(text.encode()), "t.csv", [
                ingest.Column("a", required=False), ingest.Column("b", required=False)])
    except IngestError as err:
        assert expected[-1] == ("error", err.line)
    else:
        assert list(zip(table.lines.tolist(), table.values("a"),
                        table.values("b"))) == expected
