from __future__ import annotations

import csv
import os
import tempfile
from datetime import date, datetime, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from tripmatch.gtfs import GtfsBundle, GtfsService, load_gtfs
from tripmatch.types import (
    Activity,
    ActivitySegment,
    DevicePoint,
    FilteredPoint,
    TraceColumns,
)
from tripmatch import synthetic
from tripmatch.config import DATA_DIR_ENV
from tripmatch.ingest import IngestError

DAY = date(2016, 8, 26)
T0 = datetime(2016, 8, 26, 9, 0, 0)

DATASET_ENV = DATA_DIR_ENV
DATASET_FILES = ["device_data.csv", "device_data_filtered.csv",
                 "transit_live.csv", "manual_log.csv"]


def at(seconds: float) -> datetime:
    return T0 + timedelta(seconds=seconds)


def dp(seconds: float, activities, *, device_id: int = 1, lat: float = 60.17,
       lng: float = 24.94, accuracy: float = 20.0) -> DevicePoint:
    """Compact DevicePoint builder; activities is an Activity or
    [(Activity, conf), ...]."""
    if isinstance(activities, Activity):
        activities = [(activities, 100)]
    return DevicePoint(at(seconds), device_id, lat, lng, accuracy,
                       tuple(activities))


def fp(seconds: float, activity: Activity, *, device_id: int = 1,
       lat: float = 60.17, lng: float = 24.94) -> FilteredPoint:
    return FilteredPoint(at(seconds), device_id, lat, lng, activity)


def segment_of(points: list[FilteredPoint], segment_id: int = 1,
               ) -> ActivitySegment:
    return ActivitySegment(segment_id, points[0].device_id,
                           points[0].activity, TraceColumns.from_points(points))


def segment_rows(segments) -> list[tuple]:
    """Each segment's fields and rows, to compare segments by value."""
    return [(s.segment_id, s.device_id, s.activity, list(s.trace))
            for s in segments]


def hex_points(points) -> list[tuple[str, ...]]:
    """Coordinates as float.hex, which tells -0.0 from 0.0."""
    return [tuple(map(float.hex, p)) for p in points]


def _clock(seconds: int) -> str:
    """A GTFS H:MM:SS clock; hours past 24 stay as they are."""
    return f"{seconds // 3600}:{seconds // 60 % 60:02}:{seconds % 60:02}"


def make_bundle(stops: dict[str, tuple[float, float]],
                routes: dict[str, tuple[str, int]],
                trips: list[tuple[str, str, list[tuple[str, int]]]],
                shapes: dict[str, list[tuple[float, float]]] | None = None,
                services: dict[str, GtfsService] | None = None,
                ) -> GtfsBundle:
    """A GTFS fixture, written as feed text and read by load_gtfs: trips
    are (trip_id, route_id, [(stop_id, time_s), ...]) on one universal
    all-days service "all", or (trip_id, route_id, calls, service_id) on one
    of services; a trip with an entry in shapes follows that shape."""
    shapes = shapes or {}
    services = {"all": GtfsService("all", (True,) * 7, date(2016, 1, 1),
                                   date(2016, 12, 31)), **(services or {})}
    files = {
        "stops.txt": [("stop_id", "stop_name", "stop_lat", "stop_lon"),
                      *((sid, sid, repr(lat), repr(lng))
                        for sid, (lat, lng) in stops.items())],
        "routes.txt": [("route_id", "route_short_name", "route_type"),
                       *((rid, short, rtype)
                         for rid, (short, rtype) in routes.items())],
        "trips.txt": [("trip_id", "route_id", "service_id", "shape_id"),
                      *((trip_id, route_id, *(service or ["all"]),
                         trip_id if trip_id in shapes else "")
                        for trip_id, route_id, _, *service in trips)],
        "stop_times.txt": [
            ("trip_id", "stop_id", "arrival_time", "departure_time",
             "stop_sequence"),
            *((trip_id, stop_id, _clock(t_s), _clock(t_s), seq)
              for trip_id, _, calls, *_ in trips
              for seq, (stop_id, t_s) in enumerate(calls, start=1))],
        "calendar.txt": [
            ("service_id", "monday", "tuesday", "wednesday", "thursday",
             "friday", "saturday", "sunday", "start_date", "end_date"),
            *((svc.service_id, *map(int, svc.weekdays),
               f"{svc.start:%Y%m%d}", f"{svc.end:%Y%m%d}")
              for svc in services.values())],
    }
    if shapes:
        files["shapes.txt"] = [
            ("shape_id", "shape_pt_lat", "shape_pt_lon", "shape_pt_sequence"),
            *((sid, repr(lat), repr(lng), seq) for sid, pts in shapes.items()
              for seq, (lat, lng) in enumerate(pts, start=1))]
    with tempfile.TemporaryDirectory() as feed:
        for name, rows in files.items():
            with open(Path(feed) / name, "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh).writerows(rows)
        return load_gtfs(feed)


@pytest.fixture(scope="session")
def synth(tmp_path_factory) -> synthetic.SyntheticDataset:
    return synthetic.generate(tmp_path_factory.mktemp("synth"))


def published_dataset_dir() -> Path | None:
    """The published dataset directory, when mounted (env var or ./data)."""
    candidates = []
    env = os.environ.get(DATASET_ENV)
    if env:
        candidates.append(Path(env))
    candidates.append(Path(__file__).resolve().parent.parent / "data")
    for root in candidates:
        if all((root / name).exists() for name in DATASET_FILES):
            return root
    return None


requires_dataset = pytest.mark.skipif(
    published_dataset_dir() is None,
    reason=f"published dataset not present (set {DATASET_ENV} or place the "
           f"CSV tables under ./data)")


#: one line per acceptance criterion, echoed after the test summary
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


# --- a row-by-row reference for the columnar table reader ---


class RowError(Exception):
    """A bad row: its message, and the column that it names, if any."""

    def __init__(self, message: str, column: str | None = None):
        super().__init__(message)
        self.message = message
        self.column = column


def cell(cells: dict[str, str], column: str, parse=str, required: bool = True):
    """parse of a stripped cell; a blank cell of a required column is a
    missing value, and an absent column reads as a blank cell."""
    value = cells.get(column, "")
    if value == "" and required:
        raise RowError("missing value", column)
    try:
        return parse(value)
    except (ValueError, IngestError) as exc:
        raise RowError(str(exc), column) from None


def reference_table(path, parse_row, *, label=None, permissive=False):
    """The rows of a CSV file parsed one at a time through csv.DictReader,
    as the per-row loaders did: header names stripped and lowercased, cells
    stripped, and a RowError from parse_row located at the row's line. A
    row of blank cells that fails is skipped. Returns (rows, diagnostics),
    or ("error", line, column, message) for the first bad row in strict
    mode."""
    label = path if label is None else label
    out, diagnostics = [], []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        reader.fieldnames = [h.strip().lower() for h in reader.fieldnames or []]
        for row in reader:
            cells = {k: (v or "").strip() for k, v in row.items() if k is not None}
            try:
                out.append(parse_row(cells))
            except RowError as exc:
                if not "".join([*cells.values(), *row.get(None, [])]).strip():
                    continue
                where = f"{label}: line {reader.line_num}: "
                if exc.column is not None:
                    where += f"column {exc.column!r}: "
                if not permissive:
                    return "error", reader.line_num, exc.column, where + exc.message
                diagnostics.append(f"skipped row: {where}{exc.message}")
    return out, diagnostics


def loader_outcome(load):
    """load(diagnostics)'s rows and diagnostics, or its IngestError as
    ("error", line, column, message), to compare with reference_table."""
    diagnostics: list[str] = []
    try:
        rows = load(diagnostics)
    except IngestError as err:
        return "error", err.line, err.column, str(err)
    return list(rows), diagnostics


def scan_input(cells: list[str]) -> tuple[bytes, np.ndarray, np.ndarray]:
    """cells as a scan form of the table reader takes them: their UTF-8
    bytes, each followed by a comma and the first at byte 0, and each
    cell's start and end offset."""
    data, starts, ends = b"", [], []
    for text in cells:
        starts.append(len(data))
        data += text.encode()
        ends.append(len(data))
        data += b","
    return data, np.array(starts, np.int64), np.array(ends, np.int64)


#: the text of an unread column's cells: spaces, non-ASCII, blank
_UNREAD_TEXT = st.text(" aZ9\t\u00e9\u0663", max_size=5)

#: how a test lays out a table's columns: an order, as a permutation read
#: as sort keys of the columns, and 0-2 unread columns, each as the cells
#: that the rows take in turn
arrangements = st.tuples(st.permutations(range(16)), st.lists(
    st.lists(_UNREAD_TEXT, min_size=1, max_size=3), max_size=2))

#: the columns as they are
AS_IS = (tuple(range(16)), [])


def arranged(header, rows, arrangement) -> tuple[list[str], list[list[str]]]:
    """header and rows with the unread columns of arrangement added
    (named unread_0, unread_1) and every column in its order."""
    order, unread = arrangement
    header = [*header, *(f"unread_{k}" for k in range(len(unread)))]
    rows = [[*row, *(cells[k % len(cells)] for cells in unread)]
            for k, row in enumerate(rows)]
    at = sorted(range(len(header)), key=order.__getitem__)
    return [header[i] for i in at], [[row[i] for i in at] for row in rows]
