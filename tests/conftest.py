from __future__ import annotations

import csv
import os
from datetime import date, datetime, timedelta
from pathlib import Path

import numpy as np
import pytest

from tripmatch.gtfs import (
    GtfsBundle,
    GtfsRoute,
    GtfsService,
    GtfsStop,
    GtfsStopTime,
    GtfsTrip,
    StopTimeColumns,
    TripColumns,
)
from tripmatch.types import (
    Activity,
    ActivitySegment,
    DevicePoint,
    FilteredPoint,
    GeoPoint,
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


def make_bundle(stops: dict[str, tuple[float, float]],
                routes: dict[str, tuple[str, int]],
                trips: list[tuple[str, str, list[tuple[str, int]]]],
                shapes: dict[str, list[tuple[float, float]]] | None = None,
                services: dict[str, GtfsService] | None = None,
                ) -> GtfsBundle:
    """In-memory GTFS fixture: trips are (trip_id, route_id,
    [(stop_id, time_s), ...]) on one universal all-days service "all", or
    (trip_id, route_id, calls, service_id) on one of services."""
    stop_objs = {sid: GtfsStop(sid, sid, lat, lng)
                 for sid, (lat, lng) in stops.items()}
    route_objs = {rid: GtfsRoute(rid, short, rtype)
                  for rid, (short, rtype) in routes.items()}
    trip_objs = []
    stop_times = []
    for trip_id, route_id, calls, *service in trips:
        shape_id = trip_id if shapes and trip_id in shapes else None
        trip_objs.append(GtfsTrip(trip_id, route_id, *service or ["all"],
                                  shape_id))
        for seq, (stop_id, t_s) in enumerate(calls, start=1):
            stop_times.append(GtfsStopTime(trip_id, stop_id, t_s, t_s, seq))
    bundle = GtfsBundle(
        stops=stop_objs,
        routes=route_objs,
        trips=TripColumns.from_rows(trip_objs),
        stop_times=StopTimeColumns.from_rows(stop_times),
        services={"all": GtfsService("all", (True,) * 7,
                                     date(2016, 1, 1), date(2016, 12, 31)),
                  **(services or {})},
        service_exceptions={},
        shapes={sid: [GeoPoint(lat, lng) for lat, lng in pts]
                for sid, pts in (shapes or {}).items()},
    )
    bundle.validate()
    return bundle


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
