"""Minimal GTFS reader: the five required files plus optional shapes,
with referential-integrity validation and service-date resolution.

Stop times are kept as integer seconds since midnight of the service date;
values past 24:00:00 stay above 86400 per the GTFS convention, so late
services sort and compare correctly. stop_times.txt, by far the largest
file, is read in chunks into int32 columns (StopTimeColumns) sorted by one
stable argsort of a single int64 (trip, sequence) key; no object is built
per row. Its arrival and departure clocks are decoded a chunk at a time
from the chunk's bytes by ingest.clock_seconds, which also reads the clock
of a timestamp: 'HH:MM:SS' and 'H:MM:SS' cells in one array pass, a blank
one as UNTIMED, any other on its own through the strict parse_gtfs_time,
so a bad clock is still reported by file, line and column. Its
stop_sequence is decoded from the bytes too (Int32s, by
ingest.digit_values): cells of 1-8 ASCII digits in one array pass, any
other on its own through int() and an int32 range check. Of its cells only
those of the trip_id and stop_id columns become strs. trips.txt is
kept as columns too (TripColumns): int32 codes of each trip's route,
service and shape, which validation and the planner read as masks over the
codes; a GtfsTrip is built only when one trip is looked up. shapes.txt
is sorted once, stably, by (shape, sequence): shapes maps each shape id,
in order of first appearance, to a (k, 2) lat/lng view of that one array.
Latitudes and longitudes have the dataset tables' range rules.

The tables are joined as stop_times.txt is read: its trip_id and stop_id
columns are Known columns seeded with trips.txt's trip ids and the sorted
stop ids of stops.txt, so a cell that names a trip is coded as the trip's
row in trips.txt's columns, and one that names a stop as the stop's rank
in stop_id order, without being parsed, and no later reader translates an
id. The ids that only stop_times.txt names are coded after those, in id
order, and validation reports them. Only load_gtfs builds a timetable, so every feed,
the test fixtures' included, goes through read_table's columns and
from_arrays.
"""
from __future__ import annotations

import zipfile
from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta
from pathlib import Path
from typing import Collection, Iterator, Optional, Sequence

import numpy as np

from .ingest import (LATITUDES, LONGITUDES, Column, IngestError, Known,
                     Table, clock_seconds, digit_values, read_table)
from .types import GeoPoint, LineType


class GtfsError(IngestError):
    """A GTFS feed could not be read or failed validation."""

    MISSING_COLUMNS = "missing column {missing[0]!r}"


#: GTFS route_type -> line type, covering both the classic codes and the
#: extended European ranges.
_ROUTE_TYPE_MAP: dict[int, LineType] = {0: LineType.TRAM, 1: LineType.SUBWAY,
                                        2: LineType.TRAIN, 3: LineType.BUS,
                                        4: LineType.FERRY}
_EXTENDED_RANGES = [
    (range(100, 200), LineType.TRAIN),
    (range(200, 300), LineType.BUS),   # coach services
    (range(400, 500), LineType.SUBWAY),
    (range(700, 800), LineType.BUS),
    (range(900, 1000), LineType.TRAM),
    (range(1000, 1100), LineType.FERRY),
]


def line_type_for_route_type(route_type: int) -> LineType:
    if route_type in _ROUTE_TYPE_MAP:
        return _ROUTE_TYPE_MAP[route_type]
    for rng, lt in _EXTENDED_RANGES:
        if route_type in rng:
            return lt
    raise GtfsError(f"unsupported route_type {route_type}")


@dataclass(frozen=True)
class GtfsStop:
    stop_id: str
    name: str
    lat: float
    lng: float

    @property
    def geo(self) -> GeoPoint:
        return GeoPoint(self.lat, self.lng)


@dataclass(frozen=True)
class GtfsRoute:
    route_id: str
    short_name: str
    route_type: int

    @property
    def line_type(self) -> LineType:
        return line_type_for_route_type(self.route_type)


@dataclass(frozen=True)
class GtfsTrip:
    trip_id: str
    route_id: str
    service_id: str
    shape_id: Optional[str] = None


@dataclass(frozen=True, eq=False)
class TripColumns(Mapping[str, GtfsTrip]):
    """trips.txt as int32 columns, read as a mapping of trip_id to GtfsTrip
    that builds one GtfsTrip per lookup. Trip t is trip_ids[t], in trip_id
    order; its route, service and shape are codes into route_ids,
    service_ids and shape_ids, shape -1 for a trip without one. A trip_id on
    several rows takes its last row's values; the mapping iterates in order
    of each trip's first row, which order lists. load_gtfs
    builds it by from_arrays."""

    route: np.ndarray    # int32 index into route_ids
    service: np.ndarray  # int32 index into service_ids
    shape: np.ndarray    # int32 index into shape_ids, -1 for no shape
    order: np.ndarray    # int64: the trips in order of their first row
    trip_ids: tuple[str, ...]
    route_ids: tuple[str, ...]
    service_ids: tuple[str, ...]
    shape_ids: tuple[str, ...]

    @classmethod
    def from_arrays(cls, trip: np.ndarray, route: np.ndarray,
                    service: np.ndarray, shape: np.ndarray,
                    trip_ids: Sequence[str], route_ids: Sequence[str],
                    service_ids: Sequence[str],
                    shape_ids: Sequence[str]) -> "TripColumns":
        """The columns of rows given in file order, each a column of codes
        into its ids; trip codes follow first appearance, and a blank shape
        id is no shape."""
        # the last row of each trip is its first in reverse file order
        last = len(trip) - 1 - np.unique(trip[::-1], return_index=True)[1]
        by_id = sorted(range(len(trip_ids)), key=trip_ids.__getitem__)
        rows = last[by_id]
        order = np.empty(len(trip_ids), dtype=np.int64)
        order[by_id] = np.arange(len(trip_ids))
        named = [k for k, shape_id in enumerate(shape_ids) if shape_id]
        recode = np.full(len(shape_ids), -1, dtype=np.int32)
        recode[named] = np.arange(len(named))
        return cls(route=route[rows], service=service[rows],
                   shape=recode[shape[rows]], order=order,
                   trip_ids=tuple(trip_ids[i] for i in by_id),
                   route_ids=tuple(route_ids), service_ids=tuple(service_ids),
                   shape_ids=tuple(shape_ids[k] for k in named))

    def __getitem__(self, trip_id: str) -> GtfsTrip:
        t = bisect_left(self.trip_ids, trip_id) if isinstance(trip_id, str) else 0
        if self.trip_ids[t:t + 1] != (trip_id,):
            raise KeyError(trip_id)
        shape = int(self.shape[t])
        return GtfsTrip(trip_id, self.route_ids[self.route[t]],
                        self.service_ids[self.service[t]],
                        self.shape_ids[shape] if shape >= 0 else None)

    def __iter__(self) -> Iterator[str]:
        return map(self.trip_ids.__getitem__, self.order.tolist())

    def __len__(self) -> int:
        return len(self.trip_ids)


@dataclass(frozen=True)
class GtfsStopTime:
    """One stop_times.txt row, as StopTimeColumns yields it for inspection."""

    trip_id: str
    stop_id: str
    arrival_s: Optional[int]    # None on untimed intermediate stops
    departure_s: Optional[int]
    sequence: int


#: arrival_s/departure_s of an untimed stop in StopTimeColumns
UNTIMED = -1
_INT32_MAX = 2**31 - 1


@dataclass(frozen=True, eq=False)
class StopTimeColumns:
    """Stop times as int32 columns sorted by (trip, sequence). The rows of
    trip trip_ids[t] are trip_rows[t]:trip_rows[t + 1]. A trip code is the
    trip's row in the feed's trips, trip_ids starting with trips.trip_ids;
    a stop code is the stop's rank in stop_id order, stop_ids starting with
    the sorted stop ids of stops.txt, as read_table codes the Known
    columns of stop_times.txt. Ids that only stop_times.txt names follow
    those, in id order; only an invalid feed has them. UNTIMED marks a stop
    without an arrival or departure time. load_gtfs builds it by
    from_arrays."""

    trip: np.ndarray         # int32 index into trip_ids
    stop: np.ndarray         # int32 index into stop_ids
    arrival_s: np.ndarray    # int32
    departure_s: np.ndarray  # int32
    sequence: np.ndarray     # int32
    trip_rows: np.ndarray    # int64 CSR offsets, len(trip_ids) + 1 entries
    trip_ids: tuple[str, ...]
    stop_ids: tuple[str, ...]

    @classmethod
    def from_arrays(cls, trip: np.ndarray, stop: np.ndarray,
                    arrival_s: np.ndarray, departure_s: np.ndarray,
                    sequence: np.ndarray, trip_ids: tuple[str, ...],
                    stop_ids: tuple[str, ...]) -> "StopTimeColumns":
        """The columns of rows given in file order, coded as the class
        codes them, with the rows sorted stably by (trip, sequence)."""
        # one stable sort of the int64 key (trip, sequence), as lexsort
        # would order by the two columns; the key is built in place and
        # freed before the columns are gathered
        key = trip.astype(np.int64)
        key <<= 32
        key += sequence
        key += 2**31
        order = np.argsort(key, kind="stable")
        del key
        trip_rows = np.zeros(len(trip_ids) + 1, dtype=np.int64)
        np.cumsum(np.bincount(trip, minlength=len(trip_ids)), out=trip_rows[1:])
        return cls(trip=trip[order], stop=stop[order],
                   arrival_s=arrival_s[order], departure_s=departure_s[order],
                   sequence=sequence[order], trip_rows=trip_rows,
                   trip_ids=trip_ids, stop_ids=stop_ids)

    def __len__(self) -> int:
        return len(self.trip)

    def __iter__(self) -> Iterator[GtfsStopTime]:
        """The rows as GtfsStopTime objects in (trip_id, sequence) order (for
        inspection, not the hot path)."""
        for trip, stop, arr, dep, seq in zip(
                self.trip.tolist(), self.stop.tolist(), self.arrival_s.tolist(),
                self.departure_s.tolist(), self.sequence.tolist()):
            yield GtfsStopTime(self.trip_ids[trip], self.stop_ids[stop],
                               None if arr == UNTIMED else arr,
                               None if dep == UNTIMED else dep, seq)


@dataclass(frozen=True)
class GtfsService:
    service_id: str
    weekdays: tuple[bool, ...]  # monday..sunday
    start: date
    end: date


@dataclass
class GtfsBundle:
    stops: dict[str, GtfsStop]
    routes: dict[str, GtfsRoute]
    trips: TripColumns
    stop_times: StopTimeColumns
    services: dict[str, GtfsService]
    service_exceptions: dict[date, dict[str, int]]  # date -> service_id -> 1|2
    shapes: dict[str, np.ndarray] = field(default_factory=dict)

    def counts(self) -> dict[str, int]:
        return {
            "stops": len(self.stops),
            "routes": len(self.routes),
            "trips": len(self.trips),
            "stop_times": len(self.stop_times),
            "services": len(self.services),
            "shapes": len(self.shapes),
        }

    def active_service_ids(self, day: date) -> set[str]:
        active: set[str] = set()
        for svc in self.services.values():
            if svc.start <= day <= svc.end and svc.weekdays[day.weekday()]:
                active.add(svc.service_id)
        for service_id, exception_type in self.service_exceptions.get(day, {}).items():
            if exception_type == 1:
                active.add(service_id)
            elif exception_type == 2:
                active.discard(service_id)
        return active

    def runs_on(self, day: date) -> np.ndarray:
        """Whether each trip of trips runs on day, by trip row."""
        active = self.active_service_ids(day)
        return _members(self.trips.service_ids, active)[self.trips.service]

    def trips_on(self, day: date) -> set[str]:
        return set(map(self.trips.trip_ids.__getitem__,
                       np.flatnonzero(self.runs_on(day)).tolist()))

    def validate(self) -> None:
        """Referential integrity; raises GtfsError listing the first 10
        offenders: the trips in mapping order, each checked for its route,
        service and shape, then the stop-time rows in (trip, sequence)
        order, those of trips missing from trips.txt after the others, then
        the trips with a repeated stop sequence."""
        trips, st = self.trips, self.stop_times
        known_services = set(self.services)
        for day_exceptions in self.service_exceptions.values():
            known_services.update(day_exceptions)
        # a shape is checked only when the feed has shapes; code -1, no
        # shape, reads the appended True
        known_shape = np.append(_members(trips.shape_ids, self.shapes)
                                | (not self.shapes), True)
        missing = np.stack([~_members(trips.route_ids, self.routes)[trips.route],
                            ~_members(trips.service_ids, known_services)[trips.service],
                            ~known_shape[trips.shape]], axis=1)[trips.order]
        problems: list[str] = []
        at, kind = np.nonzero(missing)
        for t, k in zip(trips.order[at[:10]].tolist(), kind[:10].tolist()):
            trip, name = trips[trips.trip_ids[t]], ("route", "service", "shape")[k]
            problems.append(f"trip {trip.trip_id} references missing {name} "
                            f"{getattr(trip, name + '_id')}")
        # codes past those of trips.txt and stops.txt name missing ones
        bad_trip = st.trip >= len(trips)
        bad_stop = st.stop >= len(self.stops)
        for row in np.flatnonzero(bad_trip | bad_stop)[:10].tolist():
            if bad_trip[row]:
                problems.append("stop_time references missing trip "
                                f"{st.trip_ids[st.trip[row]]}")
            if bad_stop[row]:
                problems.append("stop_time references missing stop "
                                f"{st.stop_ids[st.stop[row]]}")
        # rows are sorted by sequence within a trip, so a non-increasing
        # sequence shows as a repeated one
        repeated = (st.trip[1:] == st.trip[:-1]) & (st.sequence[1:] == st.sequence[:-1])
        for trip in np.unique(st.trip[1:][repeated])[:10].tolist():
            seqs = st.sequence[st.trip_rows[trip]:st.trip_rows[trip + 1]].tolist()
            problems.append(f"trip {st.trip_ids[trip]} has non-increasing stop "
                            f"sequences {seqs[:6]}")
        if problems:
            raise GtfsError("integrity violations (first 10): "
                            + "; ".join(problems[:10]))


def _unknown_in_id_order(table: Table, name: str,
                         known: int) -> tuple[np.ndarray, tuple[str, ...]]:
    """The codes and levels of Known column name, the levels after the
    first known ones, which follow first appearance, recoded in id order."""
    codes, ids = table.data[name], table.levels[name]
    if len(ids) == known:
        return codes, ids
    extra = sorted(range(known, len(ids)), key=ids.__getitem__)
    recode = np.arange(len(ids), dtype=np.int32)
    recode[extra] = np.arange(known, len(ids))
    return recode[codes], (*ids[:known], *map(ids.__getitem__, extra))


def _members(values: Sequence, known: Collection) -> np.ndarray:
    """Whether each of values is in known."""
    return np.fromiter((v in known for v in values), bool, len(values))


def parse_gtfs_time(text: str) -> int:
    """'HH:MM:SS' to seconds since service-date midnight; hours may exceed 23.
    Each part is ASCII digits only (int() would also take a sign, '_', spaces
    and other scripts' digits)."""
    parts = text.strip().split(":")
    if len(parts) != 3 or not all(p.isascii() and p.isdigit() for p in parts):
        raise GtfsError(f"bad GTFS time {text!r}")
    h, m, s = map(int, parts)
    seconds = h * 3600 + m * 60 + s
    if not (m < 60 and s < 60 and seconds <= _INT32_MAX):
        raise GtfsError(f"bad GTFS time {text!r}")
    return seconds


class Clocks:
    """parse of a stop_times.txt clock column into int32 seconds, UNTIMED
    for a blank cell: 'HH:MM:SS' and 'H:MM:SS' cells are decoded a chunk at
    a time from their bytes (scan, by ingest.clock_seconds), any other cell
    through parse_gtfs_time."""

    def __call__(self, text: str) -> int:
        return UNTIMED if text == "" else parse_gtfs_time(text)

    @staticmethod
    def scan(chunk: bytes, starts: np.ndarray,
             ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """clock_seconds of the cells, a blank cell taken as UNTIMED."""
        seconds, ok = clock_seconds(chunk, starts, ends)
        blank = starts == ends
        seconds[blank] = UNTIMED
        return seconds, ok | blank

    decode = staticmethod(np.ndarray.tolist)


def gtfs_time_to_datetime(day: date, seconds: int) -> datetime:
    return datetime.combine(day, datetime.min.time()) + timedelta(seconds=seconds)


def _parse_gtfs_date(text: str) -> date:
    return datetime.strptime(text.strip(), "%Y%m%d").date()


def _flag(digits: str):
    """The parse of a cell that may hold one of digits, to its int value."""
    def parse(text: str) -> int:
        if len(text) != 1 or text not in digits:
            raise ValueError(f"expected one of {', '.join(digits)}, "
                             f"got {text!r}")
        return int(text)
    return parse


def _route_type(text: str) -> int:
    route_type = int(text)
    line_type_for_route_type(route_type)  # fail fast on unsupported route_type
    return route_type


def _int32(text: str) -> int:
    value = int(text)
    if not -_INT32_MAX - 1 <= value <= _INT32_MAX:
        raise ValueError(f"{value} out of range")
    return value


class Int32s:
    """parse of an int32 column (stop_sequence, shape_pt_sequence): cells
    of 1 to 8 ASCII digits are decoded a chunk at a time from their bytes
    (scan, by ingest.digit_values), any other cell (blank, signed, spaced,
    of other digits or of 9 or more) through _int32."""

    def __call__(self, text: str) -> int:
        return _int32(text)

    @staticmethod
    def scan(chunk: bytes, starts: np.ndarray,
             ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        values, ok = digit_values(chunk, starts, ends)
        return values.astype(np.int32), ok

    decode = staticmethod(np.ndarray.tolist)


class _FeedSource:
    """Uniform access to feed files in a directory or a zip archive."""

    def __init__(self, path):
        self.path = Path(path)
        if not self.path.exists():
            raise GtfsError(f"{path}: not found")
        self.zip = zipfile.ZipFile(self.path) if self.path.is_file() else None
        if self.zip is not None:
            self._names = {Path(n).name: n for n in self.zip.namelist()}

    def has(self, name: str) -> bool:
        if self.zip is not None:
            return name in self._names
        return (self.path / name).exists()

    def table(self, name: str, columns: Sequence[Column]) -> Table:
        """The columns of feed file name, read strictly; errors name the
        file. GTFS has no missing-value rule: a blank cell goes to parse."""
        with (self.zip.open(self._names[name]) if self.zip is not None
              else open(self.path / name, "rb")) as fh:
            return read_table(fh, name, [c._replace(required=False)
                                         for c in columns], error=GtfsError)


REQUIRED_FILES = ["stops.txt", "routes.txt", "trips.txt", "stop_times.txt"]


def load_gtfs(path) -> GtfsBundle:
    """Load a GTFS feed from a directory or zip and validate integrity."""
    src = _FeedSource(path)
    for name in REQUIRED_FILES:
        if not src.has(name):
            raise GtfsError(f"{path}: missing required file {name}")
    if not (src.has("calendar.txt") or src.has("calendar_dates.txt")):
        raise GtfsError(f"{path}: need calendar.txt and/or calendar_dates.txt")

    stops = {stop.stop_id: stop for stop in src.table("stops.txt", [
        Column("stop_id"), Column("stop_name", header=False),
        Column("stop_lat", LATITUDES), Column("stop_lon", LONGITUDES),
    ]).build(GtfsStop)}

    routes = {route.route_id: route for route in src.table("routes.txt", [
        Column("route_id"), Column("route_short_name", header=False),
        Column("route_long_name", header=False),
        Column("route_type", _route_type),
    ]).build(lambda route_id, short, long, route_type:
             GtfsRoute(route_id, short or long, route_type))}

    table = src.table("trips.txt", [
        Column("trip_id"), Column("route_id"), Column("service_id"),
        Column("shape_id", header=False)])
    table.report()
    trips = TripColumns.from_arrays(
        trip=table.data["trip_id"], route=table.data["route_id"],
        service=table.data["service_id"], shape=table.data["shape_id"],
        trip_ids=table.levels["trip_id"], route_ids=table.levels["route_id"],
        service_ids=table.levels["service_id"],
        shape_ids=table.levels["shape_id"])

    table = src.table("stop_times.txt", [
        Column("trip_id", Known(trips.trip_ids)),
        Column("stop_id", Known(tuple(sorted(stops)))),
        Column("arrival_time", Clocks(), header=False),
        Column("departure_time", Clocks(), header=False),
        Column("stop_sequence", Int32s())])
    table.report()
    trip, trip_ids = _unknown_in_id_order(table, "trip_id", len(trips))
    stop, stop_ids = _unknown_in_id_order(table, "stop_id", len(stops))
    stop_times = StopTimeColumns.from_arrays(
        trip=trip, stop=stop, arrival_s=table.data["arrival_time"],
        departure_s=table.data["departure_time"],
        sequence=table.data["stop_sequence"],
        trip_ids=trip_ids, stop_ids=stop_ids)
    del table  # its columns are copied, sorted, into stop_times

    services: dict[str, GtfsService] = {}
    if src.has("calendar.txt"):
        day_cols = ["monday", "tuesday", "wednesday", "thursday", "friday",
                    "saturday", "sunday"]
        for svc in src.table("calendar.txt", [
                Column("service_id"),
                *(Column(c, _flag("01")) for c in day_cols),
                Column("start_date", _parse_gtfs_date),
                Column("end_date", _parse_gtfs_date),
        ]).build(lambda service_id, *days_and_dates: GtfsService(
                service_id, tuple(map(bool, days_and_dates[:7])),
                *days_and_dates[7:])):
            services[svc.service_id] = svc

    exceptions: dict[date, dict[str, int]] = {}
    if src.has("calendar_dates.txt"):
        for service_id, day, exception_type in src.table("calendar_dates.txt", [
                Column("service_id"), Column("date", _parse_gtfs_date),
                Column("exception_type", _flag("12")),
        ]).build(lambda *row: row):
            exceptions.setdefault(day, {})[service_id] = exception_type

    shapes: dict[str, np.ndarray] = {}
    if src.has("shapes.txt"):
        table = src.table("shapes.txt", [
            Column("shape_id"), Column("shape_pt_lat", LATITUDES),
            Column("shape_pt_lon", LONGITUDES),
            Column("shape_pt_sequence", Int32s())])
        table.report()
        shape, ids = table.data["shape_id"], table.levels["shape_id"]
        order = np.lexsort((table.data["shape_pt_sequence"], shape))
        points = np.stack([table.data["shape_pt_lat"],
                           table.data["shape_pt_lon"]], axis=1)[order]
        ends = np.cumsum(np.bincount(shape, minlength=len(ids)))
        shapes = dict(zip(ids, np.split(points, ends[:-1])))

    bundle = GtfsBundle(stops=stops, routes=routes, trips=trips,
                        stop_times=stop_times, services=services,
                        service_exceptions=exceptions, shapes=shapes)
    bundle.validate()
    return bundle
