"""Loaders for the dataset CSV tables and the train-history JSON.

Every loader is strict by default: a malformed row raises IngestError naming
the file, line and column. With permissive=True row errors are downgraded to
diagnostics and the row is skipped; file-level problems (missing file, bad
header) always raise. No row is ever silently dropped.
"""
from __future__ import annotations

import csv
import json
import logging
from collections import defaultdict
from datetime import date, datetime
from itertools import count
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence, TypeVar

import numpy as np

from .types import (
    Activity,
    DeviceModelEntry,
    DevicePoint,
    FilteredPoint,
    FleetColumns,
    LINE_TYPES,
    LineType,
    LIVE_LINE_TYPES,
    LOG_LINE_TYPES,
    ManualTrip,
    TIME_REF,
    VehiclePosition,
)

log = logging.getLogger(__name__)

TIMESTAMP_FORMAT = "%Y-%m-%d %H:%M:%S"

T = TypeVar("T")


class IngestError(Exception):
    """A dataset file could not be parsed or failed validation."""

    def __init__(self, message: str, *, path=None, line: int | None = None,
                 column: str | None = None):
        self.path = str(path) if path is not None else None
        self.line = line
        self.column = column
        where = []
        if self.path:
            where.append(self.path)
        if line is not None:
            where.append(f"line {line}")
        if column is not None:
            where.append(f"column {column!r}")
        prefix = ": ".join(where)
        super().__init__(f"{prefix}: {message}" if prefix else message)


def parse_timestamp(text: str, *, default_date: date | None = None) -> datetime:
    """Parse a naive local timestamp.

    Accepts 'YYYY-MM-DD HH:MM:SS', the ISO 'T' variant, and a bare
    'HH:MM:SS' clock time resolved against default_date. Fractional seconds
    are truncated (the data model is seconds-precision).
    """
    text = text.strip()
    if "." in text:
        text = text.split(".", 1)[0]
    for fmt in (TIMESTAMP_FORMAT, "%Y-%m-%dT%H:%M:%S"):
        try:
            return datetime.strptime(text, fmt)
        except ValueError:
            continue
    if default_date is not None:
        try:
            clock = datetime.strptime(text, "%H:%M:%S")
            return datetime.combine(default_date, clock.time())
        except ValueError:
            pass
    raise ValueError(f"unparseable timestamp {text!r}")


def format_timestamp(t: datetime) -> str:
    return t.strftime(TIMESTAMP_FORMAT)


class _Rows:
    """CSV reader that validates the header and reports located errors."""

    def __init__(self, path, required: Sequence[str], *, permissive: bool,
                 diagnostics: list[str] | None):
        self.path = Path(path)
        self.required = list(required)
        self.permissive = permissive
        self.diagnostics = diagnostics if diagnostics is not None else []
        if not self.path.exists():
            raise IngestError("file not found", path=path)

    def __iter__(self):
        with open(self.path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise IngestError("empty file, header expected", path=self.path)
            names = [h.strip().lower() for h in header]
            index = {name: i for i, name in enumerate(names)}
            missing = [c for c in self.required if c not in index]
            if missing:
                raise IngestError(
                    f"missing required column(s) {missing}; found {names}",
                    path=self.path)
            for row in reader:
                if not row or all(not cell.strip() for cell in row):
                    continue
                cells = {}
                for name, i in index.items():
                    cells[name] = row[i].strip() if i < len(row) else ""
                yield reader.line_num, cells

    def parse(self, parse_row: Callable[[dict[str, str]], T]) -> list[T]:
        """parse_row of every data row, in file order. A KeyError (a missing
        required value) or ValueError it raises is a row error located at
        the row's line: raised, or in permissive mode recorded in
        diagnostics with the row skipped."""
        out: list[T] = []
        for line, cells in self:
            try:
                out.append(parse_row(cells))
            except KeyError as exc:
                self._error("missing value", line, column=exc.args[0])
            except ValueError as exc:
                self._error(str(exc), line)
        return out

    def _error(self, message: str, line: int, column: str | None = None) -> None:
        err = IngestError(message, path=self.path, line=line, column=column)
        if not self.permissive:
            raise err
        self.diagnostics.append(f"skipped row: {err}")
        log.warning("%s", err)

    def warn(self, message: str) -> None:
        self.diagnostics.append(message)
        log.warning("%s: %s", self.path, message)


def _require(cells: dict[str, str], column: str) -> str:
    value = cells.get(column, "")
    if value == "":
        raise KeyError(column)
    return value


def _field(cells: dict[str, str], column: str, convert):
    """Convert a required cell, folding the column name into any error."""
    value = _require(cells, column)
    try:
        return convert(value)
    except ValueError as exc:
        raise ValueError(f"column {column!r}: {exc}") from exc


def _time(cells: dict[str, str], column: str, default_date: date | None,
          ) -> datetime:
    return _field(cells, column,
                  lambda v: parse_timestamp(v, default_date=default_date))


def _parse_coordinate(cells: dict[str, str]) -> tuple[float, float]:
    lat = _field(cells, "lat", float)
    lng = _field(cells, "lng", float)
    if not -90.0 <= lat <= 90.0:
        raise ValueError(f"column 'lat': latitude {lat} out of range [-90, 90]")
    if not -180.0 <= lng <= 180.0:
        raise ValueError(f"column 'lng': longitude {lng} out of range [-180, 180]")
    return lat, lng


def _parse_activity(value: str) -> Activity:
    try:
        return Activity(value)
    except ValueError:
        raise ValueError(f"unknown activity kind {value!r}")


def _parse_line_type(value: str, allowed) -> LineType:
    try:
        lt = LineType(value)
    except ValueError:
        raise ValueError(f"unknown line_type {value!r}")
    if lt not in allowed:
        raise ValueError(f"line_type {value!r} not allowed here")
    return lt


DEVICE_DATA_COLUMNS = [
    "time", "device_id", "lat", "lng", "accuracy",
    "activity_1", "activity_1_conf", "activity_2", "activity_2_conf",
    "activity_3", "activity_3_conf",
]


def load_device_data(path, *, permissive: bool = False,
                     diagnostics: list[str] | None = None,
                     default_date: date | None = None) -> list[DevicePoint]:
    """Load raw device samples, sorted by (time, device_id)."""
    def parse(cells: dict[str, str]) -> DevicePoint:
        time = _time(cells, "time", default_date)
        device_id = _field(cells, "device_id", int)
        lat, lng = _parse_coordinate(cells)
        accuracy = _field(cells, "accuracy", float)
        if accuracy < 0:
            raise ValueError(f"column 'accuracy': {accuracy} must be >= 0")
        activities = []
        for rank in (1, 2, 3):
            kind_text = cells.get(f"activity_{rank}", "")
            conf_text = cells.get(f"activity_{rank}_conf", "")
            if kind_text == "" and conf_text == "":
                continue
            if kind_text == "" or conf_text == "":
                raise ValueError(
                    f"activity_{rank} and activity_{rank}_conf must be "
                    "both present or both empty")
            conf = _field(cells, f"activity_{rank}_conf", int)
            if not 0 <= conf <= 100:
                raise ValueError(
                    f"column 'activity_{rank}_conf': {conf} out of "
                    "range [0, 100]")
            activities.append((_parse_activity(kind_text), conf))
        confs = [c for _, c in activities]
        if any(later > earlier for earlier, later in zip(confs, confs[1:])):
            raise ValueError(f"confidences {confs} increase with rank")
        return DevicePoint(time, device_id, lat, lng, accuracy,
                           tuple(activities))

    out = _Rows(path, DEVICE_DATA_COLUMNS[:5], permissive=permissive,
                diagnostics=diagnostics).parse(parse)
    out.sort(key=lambda p: (p.time, p.device_id))
    log.info("%s: %d device points", path, len(out))
    return out


FILTERED_COLUMNS = ["time", "device_id", "lat", "lng", "activity"]


def load_filtered_data(path, *, permissive: bool = False,
                       diagnostics: list[str] | None = None,
                       default_date: date | None = None) -> list[FilteredPoint]:
    """Load the filtered device table, sorted by (time, device_id)."""
    def parse(cells: dict[str, str]) -> FilteredPoint:
        return FilteredPoint(_time(cells, "time", default_date),
                             _field(cells, "device_id", int),
                             *_parse_coordinate(cells),
                             _field(cells, "activity", _parse_activity))

    rows = _Rows(path, FILTERED_COLUMNS, permissive=permissive,
                 diagnostics=diagnostics)
    out = rows.parse(parse)
    out.sort(key=lambda p: (p.time, p.device_id))
    n_dupes = len(out) - len({(p.time, p.device_id) for p in out})
    if n_dupes:
        rows.warn(f"{n_dupes} row(s) share a (time, device_id) key")
    log.info("%s: %d filtered points", path, len(out))
    return out


TRANSIT_LIVE_COLUMNS = ["time", "lat", "lng", "line_type", "line_name", "vehicle_ref"]

#: bytes of transit_live.csv parsed per columnar chunk; bounds the transient
#: per-cell strings whatever the file size
_CHUNK_BYTES = 1 << 20


def load_transit_live(path, *, permissive: bool = False,
                      diagnostics: list[str] | None = None,
                      default_date: date | None = None,
                      bounding_box: tuple[float, float, float, float] | None = None,
                      ) -> FleetColumns:
    """Load live fleet positions as columns in file order (input order is not
    trusted elsewhere; the position index sorts per vehicle).

    Files whose timestamps are all 'YYYY-MM-DD HH:MM:SS' are parsed straight
    into columns; any other file, including every file with a bad row, goes
    through the located row path, so errors and skipped rows do not depend
    on which path ran.

    Duplicate identical rows are retained and flagged in diagnostics.
    bounding_box, when given as (min_lat, min_lng, max_lat, max_lng), flags
    out-of-area rows in diagnostics without rejecting them.
    """
    rows = _Rows(path, TRANSIT_LIVE_COLUMNS, permissive=permissive,
                 diagnostics=diagnostics)
    fleet = _read_fleet_columns(rows.path)
    if fleet is None:
        fleet = FleetColumns.from_positions(rows.parse(
            lambda cells: _vehicle_position(cells, default_date)))
    n_dupes = _count_duplicates(fleet)
    if n_dupes:
        rows.warn(f"{n_dupes} duplicate identical row(s) retained")
    if bounding_box is not None:
        min_lat, min_lng, max_lat, max_lng = bounding_box
        inside = ((fleet.lats >= min_lat) & (fleet.lats <= max_lat)
                  & (fleet.lngs >= min_lng) & (fleet.lngs <= max_lng))
        n_outside = int(np.count_nonzero(~inside))
        if n_outside:
            rows.warn(f"{n_outside} row(s) outside the configured bounding box")
    log.info("%s: %d vehicle positions", path, len(fleet))
    return fleet


def _count_duplicates(fleet: FleetColumns) -> int:
    """Rows equal in every column to an earlier row."""
    order = np.lexsort((fleet.times_s, fleet.vehicle_ref))
    ref, time = fleet.vehicle_ref[order], fleet.times_s[order]
    tied = np.flatnonzero((ref[1:] == ref[:-1]) & (time[1:] == time[:-1]))
    # duplicates share (vehicle_ref, time), so only rows in such ties can be
    rows = order[np.union1d(tied, tied + 1)]
    # +0.0 folds -0.0 into 0.0, which compare equal as row values
    keys = np.column_stack([fleet.times_s[rows], fleet.lats[rows] + 0.0,
                            fleet.lngs[rows] + 0.0, fleet.line_type[rows],
                            fleet.line_name[rows], fleet.vehicle_ref[rows]])
    return len(rows) - len(np.unique(keys, axis=0))


def _vehicle_position(cells: dict[str, str], default_date: date | None,
                      ) -> VehiclePosition:
    time = _time(cells, "time", default_date)
    lat, lng = _parse_coordinate(cells)
    line_type = _field(cells, "line_type",
                       lambda v: _parse_line_type(v, LIVE_LINE_TYPES))
    return VehiclePosition(time, lat, lng, line_type, cells.get("line_name", ""),
                           _require(cells, "vehicle_ref"))


def _read_fleet_columns(path: Path) -> FleetColumns | None:
    """The columnar parse of transit_live.csv, or None when the file holds
    anything the row path must judge: quoting, CR or NUL bytes, a row whose
    cell count differs from the header's, a timestamp in another form, or a
    cell that fails validation."""
    with open(path, "rb") as fh:
        head = fh.readline()
        if any(c in head.rstrip(b"\r\n") for c in (b'"', b"\r", b"\0")):
            return None
        try:
            header = head.decode("utf-8-sig").rstrip("\r\n").split(",")
        except UnicodeDecodeError:
            return None
        index = {h.strip().lower(): i for i, h in enumerate(header)}  # as _Rows
        if any(c not in index for c in TRANSIT_LIVE_COLUMNS):
            return None
        width = len(header)
        at = [index[c] for c in TRANSIT_LIVE_COLUMNS]
        names, refs, types = _codes(), _codes(), _codes()
        parts = []
        while lines := fh.readlines(_CHUNK_BYTES):
            chunk = b"".join(lines).replace(b"\r\n", b"\n")
            if not chunk.endswith(b"\n"):
                chunk += b"\n"
            if b'"' in chunk or b"\r" in chunk or b"\0" in chunk:
                return None
            # every line must hold exactly width cells: its separators are
            # width - 1 commas and then a newline
            buf = np.frombuffer(chunk, np.uint8)
            newline = buf[np.flatnonzero((buf == ord(",")) | (buf == ord("\n")))] == ord("\n")
            n = len(newline) // width
            if len(newline) % width or not (
                    newline.reshape(n, width) == (np.arange(width) == width - 1)).all():
                return None
            try:
                cells = chunk.decode("utf-8").replace("\n", ",").split(",")
            except UnicodeDecodeError:
                return None
            time, lat, lng, line_type, line_name, vehicle_ref = (
                cells[i:n * width:width] for i in at)
            times_s = _stamp_seconds(time)
            try:
                lats = np.fromiter(map(float, lat), np.float64, n)
                lngs = np.fromiter(map(float, lng), np.float64, n)
            except ValueError:
                return None
            if times_s is None or not (
                    ((lats >= -90.0) & (lats <= 90.0)).all()
                    and ((lngs >= -180.0) & (lngs <= 180.0)).all()):
                return None
            parts.append((times_s, lats, lngs, _encode(line_type, types),
                          _encode(line_name, names), _encode(vehicle_ref, refs)))
    try:
        type_map = [LINE_TYPES.index(_parse_line_type(v.strip(), LIVE_LINE_TYPES))
                    for v in types]
    except ValueError:
        return None
    name_map, names_out = _strip_codes(names)
    ref_map, refs_out = _strip_codes(refs)
    if "" in refs_out:
        return None
    if parts:
        times_s, lats, lngs, type_raw, name_raw, ref_raw = (
            np.concatenate(c) for c in zip(*parts))
    else:
        times_s = lats = lngs = np.empty(0)
        type_raw = name_raw = ref_raw = np.empty(0, np.int32)
    return FleetColumns(
        times_s=times_s, lats=lats, lngs=lngs,
        line_type=np.array(type_map, dtype=np.int8)[type_raw],
        line_name=name_map[name_raw], vehicle_ref=ref_map[ref_raw],
        names=names_out, refs=refs_out)


def _codes() -> defaultdict[str, int]:
    """A value -> code map for _encode that gives each unseen value the
    next code, so codes follow first appearance."""
    return defaultdict(count().__next__)


def _encode(cells: Sequence[str], codes: defaultdict[str, int]) -> np.ndarray:
    """Dictionary-encode cells, extending codes with unseen values."""
    return np.fromiter(map(codes.__getitem__, cells), np.int32, len(cells))


def _strip_codes(codes: dict[str, int]) -> tuple[np.ndarray, tuple[str, ...]]:
    """Map raw-cell codes onto codes of the stripped cell values, as the row
    path strips every cell."""
    stripped: dict[str, int] = {}
    remap = [stripped.setdefault(v.strip(), len(stripped)) for v in codes]
    return np.array(remap, dtype=np.int32), tuple(stripped)


_STAMP_DIGITS = [0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18]
_STAMP_SEPARATORS = {4: "-", 7: "-", 10: " ", 13: ":", 16: ":"}
_DAYS_IN_MONTH = np.array([31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])
_DAYS_BEFORE_MONTH = np.cumsum(_DAYS_IN_MONTH) - _DAYS_IN_MONTH


def _stamp_seconds(cells: list[str]) -> np.ndarray | None:
    """Seconds after TIME_REF of 'YYYY-MM-DD HH:MM:SS' cells, computed with
    the proleptic-Gregorian ordinal that datetime uses; None when any cell
    has another form or is not a valid time."""
    text = np.array(cells)
    if text.dtype != np.dtype("U19"):
        return None  # some cell is longer, or all are shorter
    # UCS-4 code points; a shorter cell is padded with 0, which is no digit
    chars = text.view(np.uint32).reshape(len(cells), 19).astype(np.int64)
    digits = chars[:, _STAMP_DIGITS] - ord("0")
    if (((digits < 0) | (digits > 9)).any()
            or (chars[:, list(_STAMP_SEPARATORS)]
                != [ord(c) for c in _STAMP_SEPARATORS.values()]).any()):
        return None
    year, month, day, hour, minute, second = (
        digits[:, :4] @ [1000, 100, 10, 1], *(
            digits[:, i:i + 2] @ [10, 1] for i in range(4, 14, 2)))
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    m = np.clip(month, 1, 12) - 1
    if not ((year >= 1) & (month >= 1) & (month <= 12) & (day >= 1)
            & (day <= _DAYS_IN_MONTH[m] + (leap & (m == 1)))
            & (hour <= 23) & (minute <= 59) & (second <= 59)).all():
        return None
    y = year - 1
    ordinal = (y * 365 + y // 4 - y // 100 + y // 400 + _DAYS_BEFORE_MONTH[m]
               + (leap & (m > 1)) + day)
    return ((ordinal - TIME_REF.toordinal()) * 86400
            + hour * 3600 + minute * 60 + second).astype(np.float64)


MANUAL_LOG_COLUMNS = ["device_id", "line_type", "line_name",
                      "vehicle_dep_time", "vehicle_arr_time"]
MANUAL_LOG_ALL_COLUMNS = [
    "device_id", "st_entrance", "st_entry_time", "line_type", "line_name",
    "vehicle_dep_time", "vehicle_dep_stop", "vehicle_arr_time",
    "vehicle_arr_stop", "st_exit_location", "st_exit_time", "comments",
]


def load_manual_log(path, *, permissive: bool = False,
                    diagnostics: list[str] | None = None,
                    default_date: date | None = None) -> list[ManualTrip]:
    """Load the manual travel diary in file order."""
    def opt_time(cells, column):
        if cells.get(column, "") == "":
            return None
        return _time(cells, column, default_date)

    def parse(cells: dict[str, str]) -> ManualTrip:
        device_id = _field(cells, "device_id", int)
        line_type = _field(cells, "line_type",
                           lambda v: _parse_line_type(v, LOG_LINE_TYPES))
        dep = opt_time(cells, "vehicle_dep_time")
        arr = opt_time(cells, "vehicle_arr_time")
        if dep is not None and arr is not None and dep > arr:
            raise ValueError(
                f"vehicle_dep_time {format_timestamp(dep)} after "
                f"vehicle_arr_time {format_timestamp(arr)}")
        return ManualTrip(
            device_id=device_id,
            line_type=line_type,
            line_name=cells.get("line_name", ""),
            vehicle_dep_time=dep,
            vehicle_arr_time=arr,
            st_entrance=cells.get("st_entrance", ""),
            st_entry_time=opt_time(cells, "st_entry_time"),
            vehicle_dep_stop=cells.get("vehicle_dep_stop", ""),
            vehicle_arr_stop=cells.get("vehicle_arr_stop", ""),
            st_exit_location=cells.get("st_exit_location", ""),
            st_exit_time=opt_time(cells, "st_exit_time"),
            comments=cells.get("comments", ""),
        )

    out = _Rows(path, MANUAL_LOG_COLUMNS[:3], permissive=permissive,
                diagnostics=diagnostics).parse(parse)
    log.info("%s: %d manual trips", path, len(out))
    return out


def load_device_models(path, *, permissive: bool = False,
                       diagnostics: list[str] | None = None) -> list[DeviceModelEntry]:
    seen: set[int] = set()

    def parse(cells: dict[str, str]) -> DeviceModelEntry:
        device_id = _field(cells, "device_id", int)
        if device_id in seen:
            raise ValueError(f"duplicate device_id {device_id}")
        seen.add(device_id)
        return DeviceModelEntry(device_id, cells.get("model", ""))

    return _Rows(path, ["device_id", "model"], permissive=permissive,
                 diagnostics=diagnostics).parse(parse)


class TrainStops:
    """Opaque parsed train stop-time records; parsed but never matched on."""

    def __init__(self, tree: object):
        self.tree = tree

    @property
    def train_count(self) -> int:
        tree = self.tree
        if isinstance(tree, dict):
            tree = tree.get("junat", [])
        if isinstance(tree, list):
            return len(tree)
        return 0


def load_train_stops(path) -> TrainStops:
    """Parse the train stop-time JSON; invalid JSON errors carry the offset."""
    p = Path(path)
    if not p.exists():
        raise IngestError("file not found", path=path)
    text = p.read_text(encoding="utf-8")
    try:
        tree = json.loads(text)
    except json.JSONDecodeError as exc:
        raise IngestError(f"invalid JSON at byte offset {exc.pos}: {exc.msg}",
                          path=path) from exc
    stops = TrainStops(tree)
    log.info("%s: %d train records", path, stops.train_count)
    return stops


# --- serialization (round-trip partners of the loaders) ---


def _write_csv(path, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_device_data(points: Sequence[DevicePoint], path) -> None:
    def row(p: DevicePoint):
        cells = [format_timestamp(p.time), str(p.device_id),
                 repr(p.lat), repr(p.lng), repr(p.accuracy)]
        for rank in range(3):
            if rank < len(p.activities):
                kind, conf = p.activities[rank]
                cells += [kind.value, str(conf)]
            else:
                cells += ["", ""]
        return cells

    _write_csv(path, DEVICE_DATA_COLUMNS, (row(p) for p in points))


def write_filtered_data(points: Sequence[FilteredPoint], path) -> None:
    _write_csv(path, FILTERED_COLUMNS,
               ([format_timestamp(p.time), str(p.device_id), repr(p.lat),
                 repr(p.lng), p.activity.value] for p in points))


def write_transit_live(positions, path) -> None:
    _write_csv(path, TRANSIT_LIVE_COLUMNS,
               ([format_timestamp(v.time), repr(v.lat), repr(v.lng),
                 v.line_type.value, v.line_name, v.vehicle_ref]
                for v in positions))


def write_manual_log(trips: Sequence[ManualTrip], path) -> None:
    def fmt(t: Optional[datetime]) -> str:
        return format_timestamp(t) if t is not None else ""

    _write_csv(path, MANUAL_LOG_ALL_COLUMNS,
               ([str(t.device_id), t.st_entrance, fmt(t.st_entry_time),
                 t.line_type.value, t.line_name, fmt(t.vehicle_dep_time),
                 t.vehicle_dep_stop, fmt(t.vehicle_arr_time), t.vehicle_arr_stop,
                 t.st_exit_location, fmt(t.st_exit_time), t.comments]
                for t in trips))


def write_device_models(entries: Sequence[DeviceModelEntry], path) -> None:
    _write_csv(path, ["device_id", "model"],
               ([str(e.device_id), e.model] for e in entries))
