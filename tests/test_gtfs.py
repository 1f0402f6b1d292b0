import csv
import dataclasses
import io
import re
import zipfile
from datetime import date
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (AS_IS, arranged, arrangements, cell, hex_points,
                      loader_outcome, reference_table, scan_input)
from tripmatch import ingest
from tripmatch.ingest import Column
from tripmatch.gtfs import (
    UNTIMED,
    Clocks,
    GtfsBundle,
    GtfsError,
    GtfsStop,
    GtfsStopTime,
    GtfsTrip,
    StopTimeColumns,
    gtfs_time_to_datetime,
    line_type_for_route_type,
    load_gtfs,
    parse_gtfs_time,
)
from tripmatch.types import GeoPoint, LineType

MINIMAL = {
    "stops.txt": [
        "stop_id,stop_name,stop_lat,stop_lon",
        "A,Alpha,60.170,24.940",
        "B,Beta,60.180,24.940",
    ],
    "routes.txt": [
        "route_id,route_short_name,route_type",
        "r1,16,3",
    ],
    "trips.txt": [
        "trip_id,route_id,service_id,shape_id",
        "t1,r1,wd,",
    ],
    "stop_times.txt": [
        "trip_id,stop_id,arrival_time,departure_time,stop_sequence",
        "t1,A,10:00:00,10:00:00,1",
        "t1,B,10:10:00,10:10:00,2",
    ],
    "calendar.txt": [
        "service_id,monday,tuesday,wednesday,thursday,friday,saturday,sunday,"
        "start_date,end_date",
        "wd,1,1,1,1,1,0,0,20160801,20160930",
    ],
}


def write_feed(tmp_path, tables=None, as_zip=False):
    tables = tables if tables is not None else MINIMAL
    feed_dir = tmp_path / "feed"
    feed_dir.mkdir(exist_ok=True)
    for name, lines in tables.items():
        (feed_dir / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    if not as_zip:
        return feed_dir
    zip_path = tmp_path / "feed.zip"
    with zipfile.ZipFile(zip_path, "w") as zf:
        for name in tables:
            zf.write(feed_dir / name, name)
    return zip_path


def test_minimal_fixture_counts(tmp_path):
    bundle = load_gtfs(write_feed(tmp_path))
    assert bundle.counts() == {"stops": 2, "routes": 1, "trips": 1,
                               "stop_times": 2, "services": 1, "shapes": 0}


def test_zip_and_directory_load_identically(tmp_path):
    from_dir = load_gtfs(write_feed(tmp_path))
    from_zip = load_gtfs(write_feed(tmp_path, as_zip=True))
    assert from_dir.counts() == from_zip.counts()
    assert from_dir.stops == from_zip.stops


def test_zipped_miniature_feed_loads_as_its_directory(synth, tmp_path):
    feed = synth.root / "gtfs"
    archive = tmp_path / "gtfs.zip"
    with zipfile.ZipFile(archive, "w") as zf:
        for f in sorted(feed.iterdir()):
            zf.write(f, f.name)
    from_dir, from_zip = load_gtfs(feed), load_gtfs(archive)
    assert from_zip.stops == from_dir.stops
    assert from_zip.routes == from_dir.routes
    assert from_zip.trips == from_dir.trips
    assert list(from_zip.trips) == list(from_dir.trips)
    for column in dataclasses.fields(StopTimeColumns):
        a, b = (getattr(bundle.stop_times, column.name)
                for bundle in (from_zip, from_dir))
        assert type(a) is type(b) and np.array_equal(a, b), column.name
    assert from_zip.services == from_dir.services
    assert from_zip.service_exceptions == from_dir.service_exceptions
    assert list(from_zip.shapes) == list(from_dir.shapes) and from_dir.shapes
    for shape_id, points in from_dir.shapes.items():
        assert np.array_equal(from_zip.shapes[shape_id], points), shape_id
    assert len(from_dir.stop_times) > 100


def test_missing_required_file(tmp_path):
    tables = {k: v for k, v in MINIMAL.items() if k != "routes.txt"}
    with pytest.raises(GtfsError, match="routes.txt"):
        load_gtfs(write_feed(tmp_path, tables))


def test_missing_calendar_entirely(tmp_path):
    tables = {k: v for k, v in MINIMAL.items() if k != "calendar.txt"}
    with pytest.raises(GtfsError, match="calendar"):
        load_gtfs(write_feed(tmp_path, tables))


def test_dangling_stop_time_reference(tmp_path):
    tables = dict(MINIMAL)
    tables["stop_times.txt"] = MINIMAL["stop_times.txt"] + [
        "ghost,A,11:00:00,11:00:00,1"]
    with pytest.raises(GtfsError, match="missing trip ghost"):
        load_gtfs(write_feed(tmp_path, tables))


def test_non_increasing_stop_sequence(tmp_path):
    tables = dict(MINIMAL)
    tables["stop_times.txt"] = [
        "trip_id,stop_id,arrival_time,departure_time,stop_sequence",
        "t1,A,10:00:00,10:00:00,2",
        "t1,B,10:10:00,10:10:00,2",
    ]
    with pytest.raises(GtfsError, match="non-increasing"):
        load_gtfs(write_feed(tmp_path, tables))


def test_integrity_error_lists_at_most_ten(tmp_path):
    tables = dict(MINIMAL)
    tables["stop_times.txt"] = MINIMAL["stop_times.txt"] + [
        f"ghost{i},A,11:00:00,11:00:00,1" for i in range(15)]
    with pytest.raises(GtfsError) as err:
        load_gtfs(write_feed(tmp_path, tables))
    assert str(err.value).count("ghost") == 10


def test_service_active_on_experiment_date(tmp_path):
    bundle = load_gtfs(write_feed(tmp_path))
    assert bundle.active_service_ids(date(2016, 8, 26)) == {"wd"}  # a Friday
    assert bundle.active_service_ids(date(2016, 8, 27)) == set()   # Saturday
    assert bundle.trips_on(date(2016, 8, 26)) == {"t1"}


def test_calendar_dates_exceptions(tmp_path):
    tables = dict(MINIMAL)
    tables["calendar_dates.txt"] = [
        "service_id,date,exception_type",
        "wd,20160826,2",
        "extra,20160826,1",
    ]
    tables["trips.txt"] = MINIMAL["trips.txt"] + ["t2,r1,extra,"]
    tables["stop_times.txt"] = MINIMAL["stop_times.txt"] + [
        "t2,A,11:00:00,11:00:00,1", "t2,B,11:10:00,11:10:00,2"]
    bundle = load_gtfs(write_feed(tmp_path, tables))
    assert bundle.active_service_ids(date(2016, 8, 26)) == {"extra"}


def test_times_past_midnight_normalise():
    assert parse_gtfs_time("25:10:30") == 25 * 3600 + 10 * 60 + 30
    dt = gtfs_time_to_datetime(date(2016, 8, 26), parse_gtfs_time("25:10:30"))
    assert (dt.day, dt.hour, dt.minute) == (27, 1, 10)


def test_blank_intermediate_stop_times_allowed(tmp_path):
    tables = dict(MINIMAL)
    tables["stops.txt"] = MINIMAL["stops.txt"] + ["C,Gamma,60.190,24.940"]
    tables["stop_times.txt"] = [
        "trip_id,stop_id,arrival_time,departure_time,stop_sequence",
        "t1,A,10:00:00,10:00:00,1",
        "t1,B,,,2",
        "t1,C,10:20:00,10:20:00,3",
    ]
    bundle = load_gtfs(write_feed(tmp_path, tables))
    sts = [row for row in bundle.stop_times if row.trip_id == "t1"]
    assert sts[1].arrival_s is None and sts[1].departure_s is None
    assert sts[2].arrival_s == 10 * 3600 + 20 * 60


def test_bad_time_rejected():
    with pytest.raises(GtfsError):
        parse_gtfs_time("10:75:00")


@pytest.mark.parametrize("text", ["10:xx:00", "10:00", "-1:00:00", "",
                                  "596524:00:00", "+1:00:00", "1_0:00:00",
                                  " 5: 00:00", "\u0665:00:00", "-0:00:00"])
def test_malformed_time_is_gtfs_error(text):
    # not a bare ValueError, and no value past the int32 stop-time columns;
    # each part is ASCII digits, not whatever int() takes
    with pytest.raises(GtfsError, match="bad GTFS time"):
        parse_gtfs_time(text)


STOP_TIMES_HEADER = "trip_id,stop_id,arrival_time,departure_time,stop_sequence"
SHAPES_HEADER = "shape_id,shape_pt_lat,shape_pt_lon,shape_pt_sequence"


@pytest.mark.parametrize("name, lines, message", [
    ("stop_times.txt",
     [STOP_TIMES_HEADER, "t1,A,10:00:00,10:00:00,1", "t1,B,10:75:00,10:10:00,2"],
     "stop_times.txt: line 3: column 'arrival_time': bad GTFS time '10:75:00'"),
    ("stop_times.txt",  # the first bad row wins over a bad cell further left
     [STOP_TIMES_HEADER, "t1,A,10:00:00,10:xx:00,1", "t1,B,10:75:00,10:10:00,2"],
     "stop_times.txt: line 2: column 'departure_time': bad GTFS time '10:xx:00'"),
    ("stop_times.txt",
     [STOP_TIMES_HEADER, "t1,A,10:00:00,10:00:00,1", "", "t1,B,10:10:00,10:10:00,x"],
     "stop_times.txt: line 4: column 'stop_sequence': invalid literal for int() "
     "with base 10: 'x'"),
    ("stop_times.txt",  # a quoted cell spanning two lines
     [STOP_TIMES_HEADER + ",note", 't1,A,10:00:00,10:00:00,1,"two', 'lines"',
      "t1,B,10:10:00,10:10:00,9999999999,"],
     "stop_times.txt: line 4: column 'stop_sequence': 9999999999 out of range"),
    ("stop_times.txt",
     ["trip_id,arrival_time,departure_time,stop_sequence", "t1,10:00:00,10:00:00,1"],
     "stop_times.txt: missing column 'stop_id'"),
    ("stops.txt", ["stop_id,stop_name,stop_lon", "A,Alpha,24.940"],
     "stops.txt: missing column 'stop_lat'"),
    ("stops.txt",
     ["stop_id,stop_name,stop_lat,stop_lon", "A,Alpha,60.170,24.940",
      "B,Beta,north,24.940"],
     "stops.txt: line 3: column 'stop_lat': could not convert string to float: "
     "'north'"),
    ("routes.txt", ["route_id,route_short_name,route_type", "r1,16,bus"],
     "routes.txt: line 2: column 'route_type': invalid literal for int() with "
     "base 10: 'bus'"),
    ("routes.txt", ["route_id,route_short_name,route_type", "r1,16,5000"],
     "routes.txt: line 2: column 'route_type': unsupported route_type 5000"),
    ("trips.txt", ["trip_id,route_id", "t1,r1"],
     "trips.txt: missing column 'service_id'"),
    ("calendar.txt",
     ["service_id,monday,tuesday,wednesday,thursday,friday,saturday,sunday,"
      "start_date,end_date", "wd,1,1,1,1,1,0,0,2016-08-01,20160930"],
     "calendar.txt: line 2: column 'start_date': time data '2016-08-01' does not "
     "match format '%Y%m%d'"),
    ("stop_times.txt",
     [STOP_TIMES_HEADER, "t1,A,10:00:00,10:00:00,1", "t1,B,10:10:00,+10:10:00,2"],
     "stop_times.txt: line 3: column 'departure_time': bad GTFS time '+10:10:00'"),
    ("stops.txt",
     ["stop_id,stop_name,stop_lat,stop_lon", "A,Alpha,nan,24.940"],
     "stops.txt: line 2: column 'stop_lat': latitude nan out of range [-90, 90]"),
    ("stops.txt",
     ["stop_id,stop_name,stop_lat,stop_lon", "A,Alpha,60.170,24.940",
      "B,Beta,600.17,24.940"],
     "stops.txt: line 3: column 'stop_lat': latitude 600.17 out of range "
     "[-90, 90]"),
    ("stops.txt",
     ["stop_id,stop_name,stop_lat,stop_lon", "A,Alpha,60.170,-180.5"],
     "stops.txt: line 2: column 'stop_lon': longitude -180.5 out of range "
     "[-180, 180]"),
    ("shapes.txt",
     [SHAPES_HEADER, "s1,60.170,24.940,1", "s1,-90.01,24.940,2"],
     "shapes.txt: line 3: column 'shape_pt_lat': latitude -90.01 out of range "
     "[-90, 90]"),
    ("shapes.txt",
     [SHAPES_HEADER, "s1,60.170,inf,1"],
     "shapes.txt: line 2: column 'shape_pt_lon': longitude inf out of range "
     "[-180, 180]"),
    ("shapes.txt",
     [SHAPES_HEADER, "s1,60.170,24.940,1", "s1,60.180,24.940,2147483648"],
     "shapes.txt: line 3: column 'shape_pt_sequence': 2147483648 out of range"),
    ("shapes.txt",
     [SHAPES_HEADER, "s1,60.170,24.940,-2147483649"],
     "shapes.txt: line 2: column 'shape_pt_sequence': -2147483649 out of range"),
    ("calendar.txt",
     ["service_id,monday,tuesday,wednesday,thursday,friday,saturday,sunday,"
      "start_date,end_date", "wd,1,1,1,1,2,0,0,20160801,20160930"],
     "calendar.txt: line 2: column 'friday': expected one of 0, 1, got '2'"),
    ("calendar.txt",
     ["service_id,monday,tuesday,wednesday,thursday,friday,saturday,sunday,"
      "start_date,end_date", "wd,1,1,1,1,1,0,00,20160801,20160930"],
     "calendar.txt: line 2: column 'sunday': expected one of 0, 1, got '00'"),
    ("calendar_dates.txt",
     ["service_id,date,exception_type", "wd,20160826,1", "wd,20160827,3"],
     "calendar_dates.txt: line 3: column 'exception_type': expected one of "
     "1, 2, got '3'"),
])
def test_bad_feed_errors_are_located(tmp_path, name, lines, message):
    tables = dict(MINIMAL, **{name: lines})
    with pytest.raises(GtfsError) as err:
        load_gtfs(write_feed(tmp_path, tables))
    assert str(err.value) == message


@pytest.mark.parametrize("lines, chunk, arrivals", [
    ([STOP_TIMES_HEADER], 1 << 17, []),
    ([STOP_TIMES_HEADER, "t1,A,,,1", "t1,B,10:10:00,10:10:00,2"], 1,
     [UNTIMED, 36600]),  # one row per chunk: the first chunk's clocks are blank
])
def test_stop_time_clocks_are_int32(tmp_path, lines, chunk, arrivals):
    with mock.patch.object(ingest, "_CHUNK_BYTES", chunk):
        st_cols = load_gtfs(write_feed(tmp_path, dict(MINIMAL, **{
            "stop_times.txt": lines}))).stop_times
    assert st_cols.arrival_s.dtype == st_cols.departure_s.dtype == np.int32
    assert st_cols.arrival_s.tolist() == st_cols.departure_s.tolist() == arrivals


@pytest.mark.parametrize("row", [b"t1,B,10:10:00,10:10:00,2",
                                 b't1,"B",10:10:00,10:10:00,2'])
def test_bytes_not_utf8_are_gtfs_errors(tmp_path, row):
    feed = write_feed(tmp_path)
    (feed / "stop_times.txt").write_bytes(b"\n".join([
        STOP_TIMES_HEADER.encode(), b"t1,A,10:00:00,10:00:00,1",
        row.replace(b"B", b"B\xe4")]) + b"\n")
    with pytest.raises(GtfsError) as err:
        load_gtfs(feed)
    assert str(err.value) == (
        "stop_times.txt: line 3: byte 0xe4 is not UTF-8 (invalid continuation byte)")


def test_blocks_split_anywhere_load_alike(tmp_path):
    """A CRLF or bare-CR feed with multi-byte stop names loads alike
    whatever the block size, though some block ends inside a CRLF or a
    character; the lines are decoded in blocks at most a later read, of
    _BULK times the first, longer than the longest line."""
    tables = dict(MINIMAL)
    tables["stops.txt"] = ["stop_id,stop_name,stop_lat,stop_lon",
                           "A,Töölö,60.170,24.940", "B,Käpylä,60.180,24.940",
                           "C,Öljysatama,60.190,24.950"] + [
        f"S{k:02d},Stop {k},60.2{k:02d},24.960" for k in range(20)]
    tables["stop_times.txt"] = [STOP_TIMES_HEADER, "t1,A,9:58:00,10:00:00,1",
                                "t1,C,,,2", "t1,B,10:10:00,10:10:30,3"]
    feed = write_feed(tmp_path, tables)

    def loaded():
        bundle = load_gtfs(feed)
        return bundle.stops, list(bundle.stop_times)

    for eol in ["\r\n", "\r"]:
        for name, lines in tables.items():
            (feed / name).write_bytes((eol.join(lines) + eol).encode())
        text = (feed / "stops.txt").read_bytes()
        assert text.count(b"\xc3") == 6 and eol.encode() in text
        expected = loaded()
        assert [s.name for s in expected[0].values()] == [
            "Töölö", "Käpylä", "Öljysatama"] + [f"Stop {k}" for k in range(20)]
        assert [(st.arrival_s, st.departure_s) for st in expected[1]] == [
            (35880, 36000), (None, None), (36600, 36630)]
        longest = max(len((line + eol).encode())
                      for lines in tables.values() for line in lines)
        for size in range(1, 65):
            with mock.patch.object(ingest, "_CHUNK_BYTES", size), \
                    mock.patch.object(ingest, "_decode",
                                      wraps=ingest._decode) as decode:
                assert loaded() == expected, (eol, size)
            assert max([len(call.args[0]) for call in decode.call_args_list],
                       default=0) <= longest + ingest._BULK * size, (eol, size)


#: digits, the separator, what int() also takes, and blank cells
_CLOCK_CHARACTERS = "0123456789: +-_\u0665"


def _clock_cells():
    """Cells of widths 0-10: well-formed clocks, such clocks with one
    character replaced, and any text over _CLOCK_CHARACTERS."""
    parts = (st.integers(0, 120), st.integers(0, 99), st.integers(0, 99))
    clocks = st.one_of(st.builds("{}:{:02d}:{:02d}".format, *parts),
                       st.builds("{:02d}:{:02d}:{:02d}".format, *parts))
    edited = st.builds(lambda text, at, char: text[:at] + char + text[at + 1:],
                       clocks, st.integers(0, 8), st.sampled_from(_CLOCK_CHARACTERS))
    return st.one_of(clocks, edited, st.text(_CLOCK_CHARACTERS, max_size=10))


@settings(max_examples=300, deadline=None)
@given(st.lists(_clock_cells(), min_size=1, max_size=60))
@example(["10:00:00", "9:05:00", "", " ", "100:00:00", "010:00:00", "1:00:00 ",
          "10:60:00", "\u0665:00:00", "0:0:0", "99:59:59"])
def test_clock_columns_agree_with_parse_gtfs_time(cells):
    text = "row,clock\n" + "".join(f"{k},{c}\n" for k, c in enumerate(cells))
    table = ingest.read_table(io.BytesIO(text.encode()), "stop_times.txt", [
        Column("row"), Column("clock", Clocks(), required=False)], error=GtfsError)
    kept = iter(table.data["clock"].tolist())
    for row, cell_text in enumerate(cells):
        try:
            expected = Clocks()(cell_text.strip())
        except GtfsError as exc:
            assert table.bad[row] == (str(exc), "clock")
        else:
            assert row not in table.bad and next(kept) == expected
    assert table.data["clock"].dtype == np.int32
    # the byte scan itself takes every blank, 'H:MM:SS' and 'HH:MM:SS' cell
    _, scan_ok = Clocks.scan(*scan_input(cells))
    assert scan_ok.tolist() == [
        re.fullmatch(r"([0-9]?[0-9]:[0-5][0-9]:[0-5][0-9])?", c) is not None
        for c in cells]


def test_route_type_mapping():
    assert line_type_for_route_type(0) is LineType.TRAM
    assert line_type_for_route_type(1) is LineType.SUBWAY
    assert line_type_for_route_type(2) is LineType.TRAIN
    assert line_type_for_route_type(3) is LineType.BUS
    assert line_type_for_route_type(4) is LineType.FERRY
    assert line_type_for_route_type(701) is LineType.BUS
    assert line_type_for_route_type(109) is LineType.TRAIN
    with pytest.raises(GtfsError):
        line_type_for_route_type(5000)


def test_shapes_ordered_by_sequence(tmp_path):
    tables = dict(MINIMAL)
    tables["trips.txt"] = ["trip_id,route_id,service_id,shape_id",
                           "t1,r1,wd,s1"]
    tables["shapes.txt"] = [
        "shape_id,shape_pt_lat,shape_pt_lon,shape_pt_sequence",
        "s1,60.180,24.940,2",
        "s1,60.170,24.940,1",
    ]
    bundle = load_gtfs(write_feed(tmp_path, tables))
    assert bundle.shapes["s1"].tolist() == [[60.170, 24.940], [60.180, 24.940]]


def _dict_of_lists_shapes(rows):
    """The former assembly of shapes.txt rows (shape_id, lat, lng, sequence):
    one list of (sequence, GeoPoint) per shape, in order of first
    appearance, each sorted by sequence, so that a repeated sequence keeps
    file order."""
    raw = {}
    for shape_id, lat, lng, seq in rows:
        raw.setdefault(shape_id, []).append((seq, GeoPoint(lat, lng)))
    shapes = {}
    for shape_id, pts in raw.items():
        pts.sort(key=lambda item: item[0])
        shapes[shape_id] = [p for _, p in pts]
    return shapes


_ZERO = st.sampled_from([0.0, -0.0])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["a", "b", "c", "s10"]),
                          _ZERO | st.floats(-90, 90), _ZERO | st.floats(-180, 180),
                          st.integers(0, 4) | st.integers(-2**31, 2**31 - 1)),
                min_size=1, max_size=30))
@example([("a", 60.2, 24.9, 2), ("b", 1.0, 2.0, 1), ("a", 60.1, 24.9, 1),
          ("b", 0.0, 0.0, 1), ("a", 60.3, 24.9, 2)])  # interleaved, repeated
@example([("a", -0.0, 0.0, 1), ("a", 0.0, -0.0, 1)])
@example([("c", 10.0, 20.0, 7)])  # one vertex
def test_shapes_agree_with_the_dict_of_lists_assembly(tmp_path_factory, rows):
    """Each shape is the (k, 2) float64 array of the former per-shape list,
    in the same order, every array a view of one sorted array."""
    tables = dict(MINIMAL, **{"shapes.txt": [SHAPES_HEADER, *(
        f"{shape_id},{lat!r},{lng!r},{seq}" for shape_id, lat, lng, seq in rows)]})
    shapes = load_gtfs(write_feed(tmp_path_factory.mktemp("shapes"), tables)).shapes
    expected = _dict_of_lists_shapes(rows)
    assert list(shapes) == list(expected)
    for shape_id, points in shapes.items():
        assert points.dtype == np.float64
        assert points.shape == (len(expected[shape_id]), 2)
        assert hex_points(points.tolist()) == hex_points(expected[shape_id])
    assert len({id(points.base) for points in shapes.values()}) == 1


def test_dangling_shape_reference(tmp_path):
    tables = dict(MINIMAL)
    tables["trips.txt"] = ["trip_id,route_id,service_id,shape_id",
                           "t1,r1,wd,missing"]
    tables["shapes.txt"] = [
        "shape_id,shape_pt_lat,shape_pt_lon,shape_pt_sequence",
        "s1,60.170,24.940,1",
    ]
    with pytest.raises(GtfsError, match="missing shape"):
        load_gtfs(write_feed(tmp_path, tables))


# --- columnar stop_times vs a row-by-row DictReader parse ---

EXTRA_CELLS = ["", "x", "a, b", 'say "hi"', "two\nlines"]


@st.composite
def stop_time_feeds(draw):
    """stop_times.txt rows of 1-4 trips over stops A-E (sequence gaps, blank
    intermediate times, dwell times, times past 24:00) in shuffled order,
    with extra and reordered columns, padded cells, any quoting and blank
    lines, read in chunks of any size."""
    def clock(t):
        h, m, s = t // 3600, t % 3600 // 60, t % 60
        return draw(st.sampled_from([f"{h:02d}:{m:02d}:{s:02d}",
                                     f"{h}:{m:02d}:{s:02d}"]))

    rows = []
    for trip in range(draw(st.integers(1, 4))):
        n = draw(st.integers(2, 6))
        seqs = sorted(draw(st.sets(st.integers(0, 40), min_size=n, max_size=n)))
        t = draw(st.integers(0, 30 * 3600))
        for k, seq in enumerate(seqs):
            t += draw(st.integers(0, 900))
            arrival = clock(t)
            t += draw(st.integers(0, 120))  # dwell
            departure = clock(t)
            if 0 < k < n - 1 and draw(st.booleans()):
                arrival = departure = ""
            rows.append({"trip_id": f"t{trip}", "stop_id": draw(st.sampled_from("ABCDE")),
                         "arrival_time": arrival, "departure_time": departure,
                         "stop_sequence": str(seq),
                         "pickup_type": draw(st.sampled_from(["", "0", "1"])),
                         "note": draw(st.sampled_from(EXTRA_CELLS))})
    columns = draw(st.permutations(list(rows[0])))
    pad = draw(st.sampled_from(["", " ", "  "]))
    return (draw(st.permutations(rows)), columns, pad,
            draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL])),
            draw(st.sampled_from(["\n", "\r\n"])), draw(st.booleans()),
            draw(st.booleans()), draw(st.sampled_from([0, 2, 5])),
            draw(st.sampled_from([1, 3, 1 << 15])))


def reference_stop_times(text):
    """Every stop_times.txt row through csv.DictReader, cells stripped, sorted
    by (trip_id, sequence)."""
    def opt_time(cell):
        return parse_gtfs_time(cell) if cell else None

    out = []
    for row in csv.DictReader(io.StringIO(text, newline="")):
        cells = {k.strip(): (v or "").strip() for k, v in row.items()}
        out.append((cells["trip_id"], cells["stop_id"],
                    opt_time(cells["arrival_time"]),
                    opt_time(cells["departure_time"]),
                    int(cells["stop_sequence"])))
    return sorted(out, key=lambda r: (r[0], r[4]))


@settings(max_examples=80, deadline=None)
@given(stop_time_feeds())
def test_columnar_stop_times_equal_row_parse(tmp_path_factory, feed):
    rows, columns, pad, quoting, newline, bom, as_zip, blank_every, chunk = feed
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, quoting=quoting, lineterminator=newline)
    writer.writerow([pad + c + pad for c in columns])
    for k, row in enumerate(rows):
        writer.writerow([pad + row[c] + pad for c in columns])
        if blank_every and k % blank_every == 0:
            writer.writerow([])
    text = ("\ufeff" if bom else "") + buf.getvalue()
    tables = dict(MINIMAL)
    tables["stops.txt"] = ["stop_id,stop_name,stop_lat,stop_lon"] + [
        f"{s},{s},60.1{i},24.94" for i, s in enumerate("ABCDE")]
    tables["trips.txt"] = ["trip_id,route_id,service_id"] + [
        f"t{k},r1,wd" for k in range(4)]
    tmp_path = tmp_path_factory.mktemp("feed")
    tables.pop("stop_times.txt")
    feed_path = write_feed(tmp_path, tables)
    (feed_path / "stop_times.txt").write_bytes(text.encode("utf-8"))
    if as_zip:
        feed_path = tmp_path / "feed.zip"
        with zipfile.ZipFile(feed_path, "w") as zf:
            for f in (tmp_path / "feed").iterdir():
                zf.write(f, f.name)
    with mock.patch.multiple(ingest, _CHUNK_BYTES=chunk, _CHUNK_ROWS=chunk):
        bundle = load_gtfs(feed_path)
    got = [(r.trip_id, r.stop_id, r.arrival_s, r.departure_s, r.sequence)
           for r in bundle.stop_times]
    assert got == reference_stop_times(text.lstrip("\ufeff"))


# --- stops, trips and stop_times with bad cells vs a row-by-row reference ---

_gtfs_layouts = st.tuples(st.sampled_from(["", " "]),
                          st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]),
                          st.sampled_from(["\n", "\r\n"]), st.booleans(),
                          arrangements)


def _feed_with(tmp_path, name, header, rows, layout):
    """MINIMAL with rows appended to table name, laid out as drawn (its
    columns in any order, unread ones among them), and the path of that
    table."""
    pad, quoting, eol, bom, arrangement = layout
    header, rows = arranged(header, [*csv.reader(MINIMAL[name][1:]),
                                     *([pad + c + pad for c in row] for row in rows)],
                            arrangement)
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, quoting=quoting, lineterminator=eol)
    writer.writerow(header)
    writer.writerows(rows)
    feed = write_feed(tmp_path, {k: v for k, v in MINIMAL.items() if k != name})
    (feed / name).write_bytes((("\ufeff" if bom else "") + buf.getvalue())
                              .encode("utf-8"))
    return feed, feed / name


def _mixed(good, bad):
    return st.one_of(good, good, good, st.sampled_from(bad))


_coordinate = st.decimals(min_value="-90", max_value="90", places=4).map(str)


def _ref_stop_row(cells):
    return GtfsStop(cells["stop_id"], cell(cells, "stop_name", required=False),
                    cell(cells, "stop_lat", float, required=False),
                    cell(cells, "stop_lon", float, required=False))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(
    st.sampled_from(["A", "B", "C", "D"]),
    st.sampled_from(["", "Main St", "a, b", 'say "hi"']),
    _mixed(_coordinate, ["", "north", "1e"]),
    _mixed(_coordinate, ["", "-", "0x10"])), max_size=8), _gtfs_layouts)
def test_stops_agree_with_reference(tmp_path_factory, rows, layout):
    feed, path = _feed_with(tmp_path_factory.mktemp("feed"), "stops.txt",
                            ["stop_id", "stop_name", "stop_lat", "stop_lon"],
                            rows, layout)
    loaded = loader_outcome(lambda _: [load_gtfs(feed).stops])
    expected = reference_table(path, _ref_stop_row, label="stops.txt")
    if expected[0] != "error":
        expected = [{s.stop_id: s for s in expected[0]}], []
    assert loaded == expected


def _ref_trip_row(cells):
    return GtfsTrip(cells["trip_id"], cells["route_id"], cells["service_id"],
                    cells.get("shape_id") or None)


def _ref_trips_on(bundle, trips, day):
    """trips_on over a dict of GtfsTrip, as the per-trip loop computed it."""
    active = bundle.active_service_ids(day)
    return {t.trip_id for t in trips.values() if t.service_id in active}


def _ref_stop_times(path, trips, stops):
    """The valid rows of stop_times.txt as GtfsStopTime in (trip, sequence)
    order, file order within a tie, and the trip and stop ids they are
    coded by: those of trips.txt and stops.txt sorted, then those that only
    stop_times.txt names, sorted."""
    rows, _ = reference_table(path, _ref_stop_time_row, label="stop_times.txt")
    trip_ids = (*sorted(trips), *sorted({r[0] for r in rows} - set(trips)))
    stop_ids = (*sorted(stops), *sorted({r[1] for r in rows} - set(stops)))
    rank = {trip_id: k for k, trip_id in enumerate(trip_ids)}
    rows.sort(key=lambda r: (rank[r[0]], r[4]))
    return [GtfsStopTime(*r) for r in rows], trip_ids, stop_ids


def _ref_validate(bundle, trips, rows):
    """The GtfsError text of validate over a dict of GtfsTrip and the
    stop-time rows in (trip, sequence) order, as the per-trip loop produced
    it, or None."""
    problems: list[str] = []

    def check(condition: bool, message: str) -> None:
        if not condition and len(problems) < 10:
            problems.append(message)

    known_services = set(bundle.services)
    for day_exceptions in bundle.service_exceptions.values():
        known_services.update(day_exceptions)
    for trip in trips.values():
        check(trip.route_id in bundle.routes,
              f"trip {trip.trip_id} references missing route {trip.route_id}")
        check(trip.service_id in known_services,
              f"trip {trip.trip_id} references missing service {trip.service_id}")
        if trip.shape_id is not None and bundle.shapes:
            check(trip.shape_id in bundle.shapes,
                  f"trip {trip.trip_id} references missing shape {trip.shape_id}")
    for row in [r for r in rows
                if r.trip_id not in trips or r.stop_id not in bundle.stops][:10]:
        check(row.trip_id in trips, f"stop_time references missing trip {row.trip_id}")
        check(row.stop_id in bundle.stops,
              f"stop_time references missing stop {row.stop_id}")
    by_trip: dict[str, list[int]] = {}
    for row in rows:
        by_trip.setdefault(row.trip_id, []).append(row.sequence)
    for trip_id, seqs in list((t, s) for t, s in by_trip.items()
                              if len(set(s)) < len(s))[:10]:
        check(False, f"trip {trip_id} has non-increasing stop sequences {seqs[:6]}")
    if problems:
        return "integrity violations (first 10): " + "; ".join(problems)
    return None


_TRIPS_DAYS = [date(2016, 8, 26), date(2016, 8, 27), date(2016, 8, 29)]
#: the spaces drawn before and after a stop_times.txt id
_ID_PADS = st.sampled_from([("", ""), ("", ""), (" ", ""), ("", "  "), (" ", " ")])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(
    st.sampled_from(["t1", "t2", "t3", "x y", "t,4", ""]),
    st.sampled_from(["r1", "r1", "r9"]),
    st.sampled_from(["wd", "wd", "ex", "zz"]),
    st.sampled_from(["", "", "s1", "s9"])), max_size=12),
    st.lists(st.one_of(st.tuples(
        st.sampled_from(["t1", "t2", "t3", "ghost", "x y", "alpha", "Zed", ""]),
        st.sampled_from(["A", "B", "Z", "Q", ""]), st.integers(3, 6),
        _ID_PADS, _ID_PADS), st.none()), max_size=10),
    st.booleans(), st.booleans(), _gtfs_layouts)
@example(rows=[("t2", "r1", "wd", ""), ("t3", "r1", "wd", "")],
         stop_rows=[("ghost", "Z", 3, ("", ""), ("", "")), None,
                    ("t2", "B", 4, (" ", ""), ("", " ")),
                    ("alpha", "Q", 5, ("", ""), (" ", "")),
                    ("Zed", "A", 3, ("", " "), ("", "")), None],
         shapes=False, quoted=False, layout=("", csv.QUOTE_MINIMAL, "\n", False, AS_IS))
@example(rows=[("t1", "r1", "wd", ""), ("t2", "r1", "wd", "")],
         stop_rows=[("t2", "A", 3, (" ", " "), ("", "")),
                    ("t1", "B", 4, ("", ""), (" ", ""))],
         shapes=False, quoted=False, layout=("", csv.QUOTE_MINIMAL, "\n", False, AS_IS))
def test_trips_agree_with_reference(tmp_path_factory, rows, stop_rows, shapes,
                                    quoted, layout):
    """trips.txt with repeated trip ids and dangling route, service and
    shape references, with trips without stop times, and stop_times.txt
    with blank rows and trip and stop ids padded with spaces or missing
    from trips.txt and stops.txt, in any order: the trips mapping,
    trips_on, the stop times with their codes, and validate's error text
    equal those of a dict of GtfsTrip and per-trip loops."""
    feed, path = _feed_with(tmp_path_factory.mktemp("feed"), "trips.txt",
                            ["trip_id", "route_id", "service_id", "shape_id"],
                            rows, layout)

    def stop_time(row) -> str:
        if row is None:
            return ",,,,"
        trip, stop, seq, (a, b), (c, d) = row
        trip = a + trip + b
        if quoted:  # a quote sends the rest of the file through csv.reader
            trip = f'"{trip}"'
        return f"{trip},{c}{stop}{d},11:00:00,11:00:00,{seq}"

    (feed / "stop_times.txt").write_text("\n".join(
        MINIMAL["stop_times.txt"] + list(map(stop_time, stop_rows))) + "\n")
    (feed / "calendar_dates.txt").write_text(
        "service_id,date,exception_type\nex,20160827,1\nwd,20160829,2\n")
    if shapes:
        (feed / "shapes.txt").write_text(
            "shape_id,shape_pt_lat,shape_pt_lon,shape_pt_sequence\n"
            "s1,60.17,24.94,1\n")
    trips, _ = reference_table(path, _ref_trip_row, label="trips.txt")
    expected = {t.trip_id: t for t in trips}
    with mock.patch.object(GtfsBundle, "validate"):
        bundle = load_gtfs(feed)
    assert bundle.trips == expected and expected == bundle.trips
    assert list(bundle.trips) == list(expected)
    assert len(bundle.trips) == len(expected)
    assert [t in bundle.trips for t in ["t1", "t2", "ghost", "", 1]] == [
        t in expected for t in ["t1", "t2", "ghost", "", 1]]
    for day in _TRIPS_DAYS:
        assert bundle.trips_on(day) == _ref_trips_on(bundle, expected, day)
    stop_times, trip_ids, stop_ids = _ref_stop_times(
        feed / "stop_times.txt", expected, ["A", "B"])
    assert bundle.stop_times.trip_ids == trip_ids
    assert bundle.stop_times.stop_ids == stop_ids
    assert list(bundle.stop_times) == stop_times
    message = _ref_validate(bundle, expected, stop_times)
    if message is None:
        bundle.validate()
    else:
        with pytest.raises(GtfsError) as err:
            bundle.validate()
        assert str(err.value) == message


def _ref_stop_time_row(cells):
    def clock(value):
        return parse_gtfs_time(value) if value else None

    def int32(value):
        number = int(value)
        if not -2**31 <= number < 2**31:
            raise ValueError(f"{number} out of range")
        return number

    return (cells["trip_id"], cells["stop_id"],
            cell(cells, "arrival_time", clock, required=False),
            cell(cells, "departure_time", clock, required=False),
            cell(cells, "stop_sequence", int32, required=False))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(
    st.just("t1"), st.sampled_from("AB"),
    _mixed(st.sampled_from(["", "10:20:00", "25:01:02"]), ["10:75:00", "x"]),
    _mixed(st.sampled_from(["", "10:20:00", "9:05:00"]), ["1:2", "-1:00:00"]),
    _mixed(st.integers(3, 99).map(str), ["", "1.5", "9999999999"])),
    max_size=8, unique_by=lambda row: row[4]), _gtfs_layouts)
def test_stop_times_with_bad_cells_agree_with_reference(tmp_path_factory, rows,
                                                        layout):
    feed, path = _feed_with(tmp_path_factory.mktemp("feed"), "stop_times.txt",
                            STOP_TIMES_HEADER.split(","), rows, layout)
    loaded = loader_outcome(lambda _: [
        (r.trip_id, r.stop_id, r.arrival_s, r.departure_s, r.sequence)
        for r in load_gtfs(feed).stop_times])
    expected = reference_table(path, _ref_stop_time_row, label="stop_times.txt")
    if expected[0] != "error":
        expected = sorted(expected[0], key=lambda r: (r[0], r[4])), []
    assert loaded == expected
