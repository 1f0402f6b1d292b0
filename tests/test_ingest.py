import csv
import io
import re
from datetime import date, datetime
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (RowError, arranged, arrangements, cell, loader_outcome,
                      reference_table, scan_input)
from tripmatch import ingest
from tripmatch.ingest import (
    FILTERED_COLUMNS,
    MANUAL_LOG_ALL_COLUMNS,
    TRANSIT_LIVE_COLUMNS,
    IngestError,
    format_timestamp,
    parse_timestamp,
)
from tripmatch.gtfs import UNTIMED, Clocks, Int32s
from tripmatch.segmentation import build_segments
from tripmatch.types import (
    ACTIVITIES,
    LIVE_LINE_TYPES,
    LOG_LINE_TYPES,
    Activity,
    DevicePoint,
    FilteredPoint,
    LineType,
    as_seconds,
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
    path.write_text('[{"trainNumber": 1},\n {"trainNumber": 2}', encoding="utf-8")
    with pytest.raises(IngestError) as info:
        ingest.load_train_stops(path)
    assert (info.value.path, info.value.line) == (str(path), 2)
    assert str(info.value) == (f"{path}: line 2: invalid JSON at column 20: "
                               "Expecting ',' delimiter")


def test_train_stops_non_utf8_byte_is_located(tmp_path):
    path = tmp_path / "trains.json"
    path.write_bytes(b'[{"a": 1},\n {"b": "\xff"}]')
    with pytest.raises(IngestError) as info:
        ingest.load_train_stops(path)
    assert (info.value.path, info.value.line) == (str(path), 2)
    assert "byte 0xff is not UTF-8" in str(info.value)


def test_train_stops_read_past_a_bom(tmp_path):
    path = tmp_path / "trains.json"
    path.write_bytes(b'\xef\xbb\xbf[{"trainNumber": 1}]')
    assert ingest.load_train_stops(path).train_count == 1


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
@given(st.data(), st.lists(_live_cells, max_size=15), st.booleans(), arrangements)
def test_columnar_loader_agrees_with_row_path(tmp_path_factory, data, rows,
                                               crlf, arrangement):
    rows = rows + data.draw(st.lists(st.sampled_from(rows), max_size=3)
                            if rows else st.just([]))
    pads = data.draw(st.lists(st.integers(-1, 5), min_size=len(rows),
                              max_size=len(rows)))
    eol = "\r\n" if crlf else "\n"
    path = tmp_path_factory.mktemp("cols") / "t.csv"
    header, cells = arranged(TRANSIT_LIVE_COLUMNS, [
        line.split(",") for line in _live_lines(rows, pads)], arrangement)
    path.write_text(eol.join(map(",".join, [header, *cells])) + eol,
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
    quoting, CRLF line ends, a BOM, blank lines between rows, and the
    columns in any order with unread ones among them."""
    pad, quoting, eol, bom, blank_every, arrangement, _ = layout
    header, rows = arranged(header, rows, arrangement)
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
                     st.sampled_from([0, 2, 5]), arrangements,
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


_decimals = st.builds(
    lambda sign, zeros, digits, dot: sign + zeros + (
        digits if dot is None else digits[:dot] + "." + digits[dot:]),
    st.sampled_from(["", "-"]), st.sampled_from(["", "0", "000"]),
    st.text("0123456789", min_size=1, max_size=25), st.none() | st.integers(0, 25))
#: cells that float() reads and the byte scan must leave to it: exponents,
#: signs, spaces, separators, words, two dots, no digit, a mantissa on a
#: float64 midpoint (2**53 + 1, 2**54 + 2) and ones of 20 digits
_FLOAT_FALLBACKS = ["1e5", "-2.5E-3", "+1", " 1", "1 ", "1_0", "nan", "-inf",
                    "1.2.3", "..1", "-", ".", "", "--1", "9007199254740993",
                    "18014398509481986", "12345678901234567890",
                    "-0.1234567890123456789", "٥", "１.5"]
_float_cells = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr), _decimals,
    _one_replaced(_decimals, "0123456789.-+e ", 5), st.sampled_from(_FLOAT_FALLBACKS))

_digits = st.text("0123456789", min_size=1, max_size=10)
#: digit runs of 1-10 (leading zeros among them), signed, with one
#: character replaced by a sign, '_', a space or a non-ASCII digit, padded
#: inside or out, and blank
_int_cells = st.one_of(
    _digits, st.builds(str.__add__, st.sampled_from(["+", "-"]), _digits),
    _one_replaced(_digits, "0123456789+-_ \u0663", 9),
    st.builds(lambda text, at, pad: text[:at] + pad + text[at:], _digits,
              st.integers(0, 10), st.sampled_from([" ", "  "])),
    st.sampled_from(["", " ", "\u0663", "00000000", "99999999", "2147483647",
                     "2147483648", "-2147483648", "-2147483649", "1_0"]))

#: each byte decoder's parse, its cells, the form its scan takes, and
#: whether it takes every cell of that form (the float scan leaves a few
#: to float(): those whose extended quotient lies on a float64 midpoint)
_DECODERS = {
    "stamp": (ingest.Stamps(_DAY), _stamp_cells,
              r"[0-9]{4}-[0-9]{2}-[0-9]{2} [0-9]{2}:[0-9]{2}:[0-9]{2}", True),
    "clock": (Clocks(), _clock_cells, r"([0-9]?[0-9]:[0-5][0-9]:[0-5][0-9])?",
              True),
    "float": (ingest.Floats(), _float_cells,
              r"-?(?=[0-9.]{1,19}\Z)([0-9]+\.?[0-9]*|\.[0-9]+)", False),
    "int32": (Int32s(), _int_cells, r"[0-9]{1,8}", True),
}


def _scalar(parse, text):
    """parse of a stripped cell, or the message of its error."""
    try:
        return parse(text.strip()), None
    except (ValueError, IngestError) as exc:
        return None, str(exc)


def _same_bits(values: np.ndarray, expected: list) -> bool:
    """Whether values hold expected bit for bit (-0.0 is not 0.0)."""
    return values.tobytes() == np.array(expected, values.dtype).tobytes()


@pytest.mark.parametrize("kind", list(_DECODERS))
@settings(max_examples=150, deadline=None)
@given(data=st.data(), eol=st.sampled_from(["\n", "\r\n"]), quoted=st.booleans(),
       chunk=st.sampled_from([1, 100, 1 << 20]))
def test_byte_decoders_agree_with_scalar_parses(kind, data, eol, quoted, chunk):
    """Every cell of a column read through read_table, in chunks of any size,
    plain or quoted and after an LF or a CRLF, parses as its scalar parse
    does, bit for bit; and the scan itself accepts only cells of its fixed
    form (every one, but for the float scan), the first of them at byte 0,
    with the scalar parse's value."""
    parse, cells_of, form, every = _DECODERS[kind]
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
    assert _same_bits(table.data["cell"], [value for value, message in expected
                                           if message is None])

    values, ok = parse.scan(*scan_input(cells))
    of_form = np.array([re.fullmatch(form, c) is not None and expected[k][1] is None
                        for k, c in enumerate(cells)], dtype=bool)
    assert ok.tolist() == of_form.tolist() if every else not (ok & ~of_form).any()
    assert _same_bits(values[ok], [expected[k][0] for k in np.flatnonzero(ok)])


@settings(max_examples=100, deadline=None)
@given(st.lists(_float_cells, min_size=1, max_size=30))
def test_float_scan_without_a_wider_type_takes_clinger_cells_only(cells):
    """Where long double is no wider than float64, the float scan divides
    in float64 and takes only mantissas below 2**53, each with float()'s
    value."""
    with mock.patch.multiple(ingest, _EXTRA_BITS=0,
                             _WIDE_POW10=ingest._POW10.astype(np.float64)):
        values, ok = ingest.Floats().scan(*scan_input(cells))
    for cell, value, taken in zip(cells, values.tolist(), ok.tolist()):
        if taken:
            assert _same_bits(np.array([value]), [float(cell)])
            assert int(cell.replace("-", "").replace(".", "")) < 2 ** 53


@pytest.mark.parametrize("cell, taken", [
    ("9007199254740992", True), ("9007199254740993", False),
    ("9007199254740993.5", True), ("-0", True), ("-.5", True), ("5.", True),
    ("1.2.3", False), (".", False), ("-", False), ("1234567890123456789", True),
    ("12345678901234567890", False), (".000000000000000001", True),
    ("0.000000000000000001", False)])
def test_float_scan_takes_fixed_form_cells_off_midpoints(cell, taken):
    """An exact float64 midpoint goes to float(), which rounds it to even;
    a cell just past one is decoded in the scan."""
    values, ok = ingest.Floats().scan(*scan_input([cell]))
    assert ok.tolist() == [taken]
    if taken:
        assert _same_bits(values, [float(cell)])


def test_stamps_of_interleaved_dates_scan_as_parse_timestamp_reads_them():
    """One chunk of stamps on interleaved dates, two of them a century
    apart, leap days among them and an invalid 2015-02-29 between valid
    cells: the scan checks each distinct date once and takes every valid
    cell, the first at the chunk's first byte, at parse_timestamp's value;
    read_table reports the invalid cell at its line. A blank cell is never
    a stamp, and a blank clock reads UNTIMED."""
    days = ["2016-08-26", "1916-08-26", "2016-02-29", "2016-08-26", "2000-02-29"]
    cells = [f"{day} {k:02d}:{k + 7:02d}:{k + 30:02d}"
             for k, day in enumerate(days * 4)]
    cells.insert(6, "2015-02-29 12:00:00")
    valid = [c for c in cells if not c.startswith("2015")]
    expected = [as_seconds(parse_timestamp(c)) for c in valid]
    with mock.patch.object(ingest, "_day_seconds",
                           wraps=ingest._day_seconds) as day_seconds:
        values, ok = ingest.Stamps.scan(*scan_input(cells))
    assert sorted(call.args[0] for call in day_seconds.call_args_list) == sorted(
        {int(c[:10].replace("-", "")) for c in cells})
    assert ok.tolist() == [c in valid for c in cells]
    assert _same_bits(values[ok], expected)

    text = "time,row\n" + "".join(f"{c},{k}\n" for k, c in enumerate(cells))
    table = ingest.read_table(io.BytesIO(text.encode()), "t.csv", [
        ingest.Column("time", ingest.Stamps()), ingest.Column("row")])
    assert _same_bits(table.data["time"], expected)
    with pytest.raises(IngestError) as err:
        table.report()
    assert (err.value.line, err.value.column) == (8, "time")

    with mock.patch.object(ingest, "_day_seconds",
                           wraps=ingest._day_seconds) as day_seconds:
        ok = ingest.Stamps.scan(*scan_input(["", valid[0], "", valid[0][:-1]]))[1]
    assert ok.tolist() == [False, True, False, False]
    assert day_seconds.call_count == 1  # blank and short cells read no date
    assert Clocks()("") == UNTIMED
    seconds, ok = Clocks.scan(*scan_input(["", "8:00:00", ""]))
    assert (seconds.tolist(), ok.tolist()) == ([UNTIMED, 28800, UNTIMED], [True] * 3)


def _assert_one_padded_stamp_parsed_alone(path):
    with mock.patch.object(ingest, "parse_timestamp",
                           wraps=ingest.parse_timestamp) as scalar:
        fleet = ingest.load_transit_live(path)
    assert scalar.call_count == 1
    assert scalar.call_args.args == ("2016-08-26 10:00:57",)
    assert np.diff(fleet.times_s).tolist() == [1.0] * 199


def _padded_stamp_rows():
    rows = [f"2016-08-26 10:{k // 60:02d}:{k % 60:02d},60.1,24.9,BUS,16,v1"
            for k in range(200)]
    rows[57] = " " + rows[57]
    return rows


def test_one_padded_stamp_is_parsed_alone(tmp_path):
    """A padded stamp goes through parse_timestamp on its own, its chunk's
    other stamps staying in the byte scan."""
    _assert_one_padded_stamp_parsed_alone(
        write(tmp_path, "t.csv", LIVE_HEADER, *_padded_stamp_rows()))


@pytest.mark.parametrize("eol", ["\n", "\r\n"])
def test_one_padded_stamp_is_parsed_alone_after_crlfs_and_an_empty_line(tmp_path, eol):
    """So it is too where each first cell of a row follows a CRLF, or an
    empty line."""
    rows = _padded_stamp_rows()
    path = tmp_path / "t.csv"
    path.write_bytes((eol.join([LIVE_HEADER, *rows[:120], "", *rows[120:]]) + eol).encode())
    _assert_one_padded_stamp_parsed_alone(path)


#: a byte that is not UTF-8 on line 3 of a table, on each of the reader's
#: paths: plain rows split on bytes (in a text, a scanned and an unread
#: column), quoted rows read by csv.reader, and the header (line 1)
_NOT_UTF8 = {
    "plain": ([LIVE_HEADER.encode(), b"2016-08-26 10:00:00,60.1,24.9,BUS,16,v1",
               b"2016-08-26 10:00:30,60.1,24.9,BUS,1\xff6,v1"], 3),
    "plain scanned": ([LIVE_HEADER.encode(), b"2016-08-26 10:00:00,60.1,24.9,BUS,16,v1",
                       b"2016-08-26 10:00:30,60.1\xff,24.9,BUS,16,v1"], 3),
    "plain unread": ([LIVE_HEADER.encode() + b",note",
                      b"2016-08-26 10:00:00,60.1,24.9,BUS,16,v1,",
                      b"2016-08-26 10:00:30,60.1,24.9,BUS,16,v1,\xff"], 3),
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


def _assert_one_column_empty_lines_skipped(text):
    for chunk in range(1, 17):
        with mock.patch.object(ingest, "_CHUNK_BYTES", chunk), \
                mock.patch.object(ingest, "_lines", wraps=ingest._lines) as slow:
            table = ingest.read_table(io.BytesIO(text.encode()), "t.csv", [
                ingest.Column("a", required=False)])
        assert slow.called, chunk
        assert list(zip(table.lines.tolist(), table.values("a"))) == [
            (2, "1"), (4, "2"), (7, "3")], chunk


def test_one_column_empty_lines_are_skipped_as_csv_reader_skips_them():
    """In a one-column table, where an empty line has the width of a row,
    the block that holds it goes through csv.reader, which skips it and
    counts its line."""
    _assert_one_column_empty_lines_skipped("a\n1\n\n2\n\n\n3\n\n")


def test_one_column_empty_lines_after_crlfs_are_skipped_as_csv_reader_skips_them():
    """So it does where the lines end in CRLFs."""
    _assert_one_column_empty_lines_skipped("a\r\n1\r\n\r\n2\r\n\r\n\r\n3\r\n\r\n")


@pytest.mark.parametrize("eol", ["\n", "\r\n"])
def test_one_column_lines_without_empty_ones_split_on_bytes(eol):
    """A one-column table with no empty line is split on bytes, in blocks
    of any size."""
    text = eol.join(["a", "1", "22", "3", " 4 "]) + eol
    for chunk in range(1, 17):
        with mock.patch.object(ingest, "_CHUNK_BYTES", chunk), \
                mock.patch.object(ingest, "_lines", wraps=ingest._lines) as slow:
            table = ingest.read_table(io.BytesIO(text.encode()), "t.csv", [
                ingest.Column("a")])
        assert not slow.called, chunk
        assert list(zip(table.lines.tolist(), table.values("a"))) == [
            (2, "1"), (3, "22"), (4, "3"), (5, "4")], chunk


def test_a_bare_cr_in_a_row_of_the_header_width_reads_as_csv_reader_reads_it():
    """A CR that no LF follows ends a line, also where the commas and LFs
    alone would make a row of the header's width of it and the next line:
    the block goes through csv.reader."""
    text = "a,b\r\n1,x\ry\r\n"
    reader = csv.reader(io.StringIO(text, newline=""))
    next(reader)
    expected = [(reader.line_num, *(row + [""])[:2]) for row in reader]
    assert expected == [(2, "1", "x"), (3, "y", "")]
    for chunk in [*range(1, 17), ingest._CHUNK_BYTES]:
        with mock.patch.object(ingest, "_CHUNK_BYTES", chunk):
            table = ingest.read_table(io.BytesIO(text.encode()), "t.csv", [
                ingest.Column("a"), ingest.Column("b", required=False)])
        assert list(zip(table.lines.tolist(), table.values("a"),
                        table.values("b"))) == expected, chunk


#: the line ends of files whose lines end in CRLFs only, bare CRs only,
#: CR CRLF pairs (a bare CR, then a CRLF, so an empty line), or any mix of
#: these and LFs; and of files with empty lines after the header, between
#: rows or at the end. The header ends in the first, row k in the
#: (k + 1)-th, cyclically
_CR_FILES = {
    "CRLF": ["\r\n"], "bare CR": ["\r"], "CR CRLF": ["\r\r\n"],
    "mixed": ["\r", "\n", "\r\n", "\r\r\n", "\r"],
    "blank after header": ["\n\n"] + ["\n"] * 12,
    "blank mid-file": ["\n"] + ["\n", "\n\n", "\r\n\r\n\r\n", "\r\n"] * 3,
    "blank at end": ["\r\n"] * 12 + ["\r\n\r\n\n"],
}


@pytest.mark.parametrize("eols", list(_CR_FILES))
def test_cr_line_ends_split_on_bytes_as_csv_reader_reads_them(eols):
    """A file of plain rows under each mix of line ends and empty lines,
    read in blocks of every size from 1 to 64 bytes (so that blocks end at
    every byte, a bare CR included) and in one block, gives csv.reader's
    cells and line numbers. The file whose lines all end in CRLFs is split
    on bytes, a CRLF's CR ending its line's last cell in place; every other
    goes through csv.reader when read in one block, as a block whose lines
    end unalike or that holds an empty line does. (A small block that holds
    a single line ending in a bare CR reads as ending in a CRLF, as it
    should.)"""
    ends = _CR_FILES[eols]
    text = "a,b" + ends[0] + "".join(
        f"{k},{'x' * (k % 5)}{ends[(k + 1) % len(ends)]}" for k in range(12))
    reader = csv.reader(io.StringIO(text, newline=""))
    next(reader)
    expected = [(reader.line_num, *row) for row in reader if row]
    for chunk in [*range(1, 65), ingest._CHUNK_BYTES]:
        with mock.patch.object(ingest, "_CHUNK_BYTES", chunk), \
                mock.patch.object(ingest, "_lines", wraps=ingest._lines) as slow:
            table = ingest.read_table(io.BytesIO(text.encode()), "t.csv", [
                ingest.Column("a"), ingest.Column("b", required=False)])
        if eols == "CRLF" or chunk == ingest._CHUNK_BYTES:
            assert slow.called is (eols != "CRLF"), chunk
        assert list(zip(table.lines.tolist(), table.values("a"),
                        table.values("b"))) == expected, chunk


@pytest.mark.parametrize("quoted", [False, True])
@pytest.mark.parametrize("chunk", [1, 7, 1 << 17])
def test_known_values_keep_their_codes_and_the_others_follow_them(quoted, chunk):
    """A Known column's values keep their codes, also one whose every row is
    dropped and one no row names; a cell that parses to a known value takes
    its code; the other values follow in order of first appearance in the
    rows kept, on the byte path and through csv.reader, in blocks of any
    size."""
    rows = [("z", "bad"), ("x", "1"), (" b ", "2"), ("a", "bad"), ("z", "3"),
            ("b", "4"), ("x ", "5"), (",", "bad")]
    text = "id,n\n" + "".join(
        (f'"{i}",{n}\n' if quoted or "," in i else f"{i},{n}\n") for i, n in rows)
    known = ingest.Known(("a", "b", "c"))
    for drop in (True, False):
        lines = text if drop else "".join(
            line for line in text.splitlines(True) if "bad" not in line)
        with mock.patch.object(ingest, "_CHUNK_BYTES", chunk):
            table = ingest.read_table(io.BytesIO(lines.encode()), "t.csv", [
                ingest.Column("id", known), ingest.Column("n", int)],
                permissive=True)
        # with rows dropped or not, " b " and "x " parse as values seen
        # before, and "z" follows "x" although a dropped row names it first
        assert table.levels["id"] == ("a", "b", "c", "x", "z"), drop
        assert table.data["id"].tolist() == [3, 1, 4, 1, 3], drop
        assert table.data["id"].dtype == np.int32


def test_plain_text_cells_strip_alike_and_a_blank_required_one_is_missing():
    """New plain-text cells of a block are stripped together: cells that
    strip alike share one code, and a blank cell of a required column is a
    missing value, located at its line."""
    text = "s,t\n a,1\nb ,\na,\n b,2\n"
    table = ingest.read_table(io.BytesIO(text.encode()), "t.csv", [
        ingest.Column("s"), ingest.Column("t", required=False)])
    assert table.levels["s"] == ("a", "b")
    assert table.data["s"].tolist() == [0, 1, 0, 1]
    assert table.values("t") == ["1", "", "", "2"]
    with pytest.raises(IngestError, match="line 3: column 't': missing value"):
        ingest.read_table(io.BytesIO(text.encode()), "t.csv", [
            ingest.Column("s"), ingest.Column("t")]).report()


# --- runs of adjacent text columns, split as one piece a row ---


def _apart(text: str) -> str:
    """text with an unread cell after each cell of every non-empty line, so
    that no two read columns are adjacent and each is split cell by cell."""
    out = []
    for k, line in enumerate(text.splitlines(keepends=True)):
        body = line.rstrip("\r\n")
        cells = body.split(",")
        fill = [f"pad{j}" for j in range(len(cells))] if k == 0 else [""] * len(cells)
        out.append(",".join(f"{c},{f}" for c, f in zip(cells, fill)) * bool(body)
                   + line[len(body):])
    return "".join(out)


def _read(text: str, columns, permissive: bool, chunk: int):
    """The columns, levels, lines and diagnostics of text read in blocks of
    chunk bytes, or its IngestError as ("error", line, column, message)."""
    diagnostics: list[str] = []
    try:
        with mock.patch.object(ingest, "_CHUNK_BYTES", chunk):
            table = ingest.read_table(io.BytesIO(text.encode()), "t.csv", columns,
                                      permissive=permissive, diagnostics=diagnostics)
        table.report()
    except IngestError as err:
        return "error", err.line, err.column, str(err)
    return ({c.name: (table.levels.get(c.name), table.data[c.name].tolist())
             for c in columns}, table.lines.tolist(), diagnostics)


_RUN_CHUNKS = [*range(1, 65), 1 << 17]


def _joint_reads(text: str, columns, permissive: bool = False):
    """Read text in blocks of every size in _RUN_CHUNKS, asserting that each
    read gives what the same text read cell by cell gives; the spans that
    each block of each read was split into."""
    expected = _read(_apart(text), columns, permissive, 1 << 17)
    splits = {}
    for chunk in _RUN_CHUNKS:
        with mock.patch.object(ingest, "_split", wraps=ingest._split) as split:
            assert _read(text, columns, permissive, chunk) == expected, chunk
        splits[chunk] = [call.args[3] for call in split.call_args_list]
    return expected, splits


def _kind(text: str) -> str:
    if text not in ("BUS", "TRAM"):
        raise ValueError(f"unknown kind {text!r}")
    return text


_RUN_COLUMNS = [ingest.Column("x", ingest.Floats()), ingest.Column("kind", _kind),
                ingest.Column("name"), ingest.Column("ref", int)]
_RUN_ROWS = [("BUS", "16", "1"), ("TRAM", "4", "2"), ("BUS", "16", "3")]
#: a bad cell of each column of the run
_RUN_FAULTS = {"kind": "ZEPPELIN", "name": " ", "ref": "x"}


@pytest.mark.parametrize("eol", ["\n", "\r\n"])
@pytest.mark.parametrize("permissive", [False, True])
@pytest.mark.parametrize("column", list(_RUN_FAULTS))
def test_a_bad_cell_in_a_run_is_located_as_cell_by_cell(column, permissive, eol):
    """A bad cell at any place of a run of text columns (kind, name, ref)
    gives the located error, or under permissive the diagnostics, of the
    same table read cell by cell; so does a row of blank cells, which is
    skipped without a diagnostic. The run is split as one piece a row in
    every read of the table in one block."""
    rows = [[f"{k}.5", *_RUN_ROWS[k % 3]] for k in range(18)]
    rows[11][1 + list(_RUN_FAULTS).index(column)] = _RUN_FAULTS[column]
    rows[14][2] = _RUN_FAULTS["name"]  # a second bad cell, in name
    rows[5] = ["", "", "", ""]
    text = eol.join(["x,kind,name,ref", *map(",".join, rows)]) + eol
    expected, splits = _joint_reads(text, _RUN_COLUMNS, permissive)
    if permissive:
        assert [d.split(": ")[2:4] for d in expected[2]] == [
            ["line 13", f"column {column!r}"], ["line 16", "column 'name'"]]
    else:
        assert expected[1:3] == (13, column)
    assert splits[1 << 17] == [[[1, 2, 3]]]


@pytest.mark.parametrize("eol", ["\n", "\r\n"])
def test_a_known_column_in_a_run_keeps_its_codes(eol):
    """A Known column between two text columns keeps its known values'
    codes, a padded known cell taking its value's code and the other values
    following in order of first appearance, in a run read as one piece a
    row."""
    known = ingest.Known(("x", "y", "z"))
    columns = [ingest.Column("a"), ingest.Column("k", known), ingest.Column("b")]
    cells = ["y", "q", "x", " z ", "y", "p", "q"]
    text = eol.join(["a,k,b", *(f"r{k % 2},{c},s" for k, c in enumerate(cells * 3))]) + eol
    expected, splits = _joint_reads(text, columns)
    assert expected[0]["k"] == (("x", "y", "z", "q", "p"), [1, 3, 0, 2, 1, 4, 3] * 3)
    assert splits[1 << 17] == [[[0, 1, 2]]]


def test_a_run_unique_per_row_goes_back_to_a_piece_per_cell():
    """A run whose every row is a new piece (as trips.txt's, whose trip_id
    is unique) codes as cell by cell, and from its second block on is split
    cell by cell."""
    text = "trip_id,route_id\n" + "".join(f"t{k},r{k % 3}\n" for k in range(40))
    expected, splits = _joint_reads(text, [ingest.Column("trip_id"),
                                           ingest.Column("route_id")])
    assert expected[0]["route_id"] == (("r0", "r1", "r2"), [0, 1, 2] * 13 + [0])
    for chunk in _RUN_CHUNKS[:-1]:
        assert splits[chunk][0] == [[0, 1]], chunk
        assert all(spans == [[0], [1]] for spans in splits[chunk][1:]), chunk


@pytest.mark.parametrize("eol", ["\n", "\r\n"])
def test_a_run_that_stops_repeating_goes_back_partway(eol):
    """A run whose pieces repeat for the first rows and are new in every
    row after codes as cell by cell; read in small blocks, it is split as
    one piece a row at first (over several blocks where the first holds
    more than a row) and cell by cell from the block after which its
    distinct pieces outnumber half the rows read."""
    rows = [("BUS", "16")] * 30 + [("TRAM", f"n{k}") for k in range(40)]
    text = eol.join(["t,kind,name", *(f"{k}.0,{a},{b}" for k, (a, b) in
                                      enumerate(rows))]) + eol
    columns = [ingest.Column("t", ingest.Floats()), ingest.Column("kind", _kind),
               ingest.Column("name")]
    expected, splits = _joint_reads(text, columns)
    assert expected[0]["name"][1] == [0] * 30 + list(range(1, 41))
    for chunk, spans in splits.items():
        joint = spans.count([[1, 2]])
        assert joint >= 1 and spans[joint:] == [[[1], [2]]] * (len(spans) - joint), chunk
    assert splits[64].count([[1, 2]]) > 1 and splits[1 << 17] == [[[1, 2]]]


@pytest.mark.parametrize("eol", ["\n", "\r\n"])
def test_a_table_without_text_columns_is_still_checked_for_utf8(eol):
    """A table whose read columns all have a byte decoder is split into no
    pieces, on the byte path; its blocks are decoded all the same, so that
    a byte that is not UTF-8, here in an unread column, is an error at its
    line."""
    text = eol.join(["x,note", "1.5,a", "2.5,é"]) + eol
    for chunk in _RUN_CHUNKS:
        with mock.patch.object(ingest, "_CHUNK_BYTES", chunk), \
                mock.patch.object(ingest, "_lines", wraps=ingest._lines) as slow:
            table = ingest.read_table(io.BytesIO(text.encode()), "t.csv", [
                ingest.Column("x", ingest.Floats())])
            assert table.data["x"].tolist() == [1.5, 2.5] and not slow.called, chunk
            with pytest.raises(IngestError, match="^t.csv: line 3: byte 0xff"):
                ingest.read_table(io.BytesIO(text.encode().replace("é".encode(), b"\xff")),
                                  "t.csv", [ingest.Column("x", ingest.Floats())])


def _fleet_text(rows: int, eol: str = "\r\n") -> str:
    """A fleet table of rows plain rows, about 45 bytes each."""
    return eol.join([LIVE_HEADER, *(
        f"2016-08-26 {9 + k // 3600:02d}:{k // 60 % 60:02d}:{k % 60:02d},"
        f"60.{k % 997:03d},24.{k % 991:03d},{('BUS', 'TRAM')[k % 2]},"
        f"{k % 7},v{k % 13}" for k in range(rows))]) + eol


def _csv_cells(text: str) -> list[tuple]:
    """(line, *cells) of each data row of text as csv.reader reads it."""
    reader = csv.reader(io.StringIO(text, newline=""))
    next(reader)
    return [(reader.line_num, *(row + [""] * 6)[:6]) for row in reader if row]


def _read_fleet_cells(data: bytes):
    """(line, *cells) of each row of data read by read_table at the default
    block sizes, the size of each read, and the _lines mock."""
    fh = io.BytesIO(data)
    with mock.patch.object(fh, "read", wraps=fh.read) as read, \
            mock.patch.object(ingest, "_lines", wraps=ingest._lines) as slow:
        table = ingest.read_table(fh, "t.csv", [
            ingest.Column(name, required=False) for name in TRANSIT_LIVE_COLUMNS])
    cells = list(zip(table.lines.tolist(), *map(table.values, TRANSIT_LIVE_COLUMNS)))
    return cells, [call.args[0] for call in read.call_args_list], slow


@pytest.mark.parametrize("chunk", [1, 7, 1 << 17])
def test_the_first_read_is_a_chunk_and_every_later_one_a_bulk_read(chunk):
    """A table is read _CHUNK_BYTES bytes first and _BULK times as many in
    every later read, to the end of the file."""
    data = _fleet_text(40 if chunk < 100 else 12_000).encode()
    fh = io.BytesIO(data)
    with mock.patch.object(ingest, "_CHUNK_BYTES", chunk), \
            mock.patch.object(fh, "read", wraps=fh.read) as read:
        table = ingest.read_table(fh, "t.csv", [ingest.Column("vehicle_ref")])
    sizes = [call.args[0] for call in read.call_args_list]
    bulk = ingest._BULK * chunk
    assert sizes == [chunk] + [bulk] * (-(-(len(data) - chunk) // bulk) + 1)
    assert len(sizes) > 2 and len(table.lines) == data.count(b"\n") - 1


def test_a_crlf_fleet_file_read_in_bulk_blocks_reads_as_csv_reader_reads_it():
    """A CRLF fleet file of about 700 KiB is read at the default sizes as a
    first block and bulk blocks, each split on bytes, and gives csv.reader's
    cells and line numbers."""
    text = _fleet_text(16_000)
    assert 600 << 10 < len(text) < 800 << 10
    cells, sizes, slow = _read_fleet_cells(text.encode())
    assert sizes[:2] == [ingest._CHUNK_BYTES, ingest._BULK * ingest._CHUNK_BYTES]
    assert not slow.called
    assert cells == _csv_cells(text)


def test_a_stray_cr_in_a_bulk_block_reads_as_csv_reader_reads_it():
    """One CR inside a cell of a CRLF fleet file, in its first bulk block,
    ends a line there as csv.reader ends it. The commas and LFs alone make
    rows of the header's width of that block, so only its count of CRs
    sends it through csv.reader: the first block is split on bytes, and
    _lines reads the rest of the file from the bulk block on."""
    text = _fleet_text(16_000)
    at = text.index("\r\n", 300 << 10) - 2  # in the last cell of a row
    text = text[:at] + "\r" + text[at:]
    data = text.encode()
    first = data[:ingest._CHUNK_BYTES]
    first_lines = first[:first.rfind(b"\n") + 1].count(b"\n")
    cells, sizes, slow = _read_fleet_cells(data)
    expected = _csv_cells(text)
    assert len(expected) == 16_001
    assert cells == expected
    assert sizes[:2] == [ingest._CHUNK_BYTES, ingest._BULK * ingest._CHUNK_BYTES]
    assert slow.call_count == 1 and slow.call_args.args[3] == first_lines
