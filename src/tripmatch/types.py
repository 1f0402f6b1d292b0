"""Domain model shared by all pipeline stages.

Times are naive local timestamps (the dataset is single-day, single-zone);
no timezone conversion happens anywhere in the pipeline.

The filtered device table is a TraceColumns, sorted by (device_id, time,
file order), and each ActivitySegment holds a slice of it; FilteredPoint is
only its row type, as VehiclePosition is that of FleetColumns.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from datetime import datetime, timedelta
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np


class Activity(str, enum.Enum):
    IN_VEHICLE = "IN_VEHICLE"
    ON_BICYCLE = "ON_BICYCLE"
    RUNNING = "RUNNING"
    STILL = "STILL"
    TILTING = "TILTING"
    UNKNOWN = "UNKNOWN"
    WALKING = "WALKING"


#: Activity kinds that count as reliable signal for filtering decisions.
GOOD_ACTIVITIES = frozenset(
    a for a in Activity if a not in (Activity.UNKNOWN, Activity.TILTING)
)


class LineType(str, enum.Enum):
    SUBWAY = "SUBWAY"
    BUS = "BUS"
    TRAM = "TRAM"
    TRAIN = "TRAIN"
    FERRY = "FERRY"
    CAR = "CAR"


#: line types that may appear in the live fleet feed
LIVE_LINE_TYPES = frozenset(
    (LineType.SUBWAY, LineType.BUS, LineType.TRAM, LineType.TRAIN, LineType.FERRY)
)
#: line types that may appear in the manual travel diary
LOG_LINE_TYPES = frozenset(
    (LineType.SUBWAY, LineType.BUS, LineType.TRAM, LineType.TRAIN, LineType.CAR)
)
#: public-transport line types used in evaluation statistics
PT_LINE_TYPES = (LineType.BUS, LineType.TRAM, LineType.TRAIN, LineType.SUBWAY)


class GeoPoint(NamedTuple):
    lat: float
    lng: float


def seconds_between(earlier: datetime, later: datetime) -> float:
    """Signed wall-clock difference later - earlier, in seconds."""
    return (later - earlier).total_seconds()


#: origin of the float-seconds time axis of columnar tables
TIME_REF = datetime(2000, 1, 1)

#: the longest slack a matcher adds to a segment's times (the live window,
#: tWb): one day covers a one-day batch, and keeps the shifted times in
#: datetime's range
MAX_SLACK_S = 86400.0


def check_number(name: str, value, *, integer: bool = False,
                 positive: bool = False, at_least: Optional[float] = None,
                 at_most: Optional[float] = None, finite: bool = True,
                 unit: str = ""):
    """value, if it keeps the rule of the tunable name; else a ValueError
    "<name> must be <rule>, got <value!r>" naming the first part it breaks.
    This is the one validity rule of every tunable number.

    The rule: an int (integer) or any int or float, never a bool; > 0 if
    positive; within at_least and at_most where given, which NaN never is;
    finite unless finite is False. at_least goes with positive or at_most
    only when at_most equals it; an integer's rule is worded whole."""
    if at_most is None:
        rule = ("positive" if positive else "a number" if at_least is None
                else f">= {at_least:g}")
    elif positive:
        rule = f"in (0, {at_most:g}]"
    else:
        rule = (f"{at_most:g}" if at_least == at_most
                else f"at most {at_most:g}{unit}")
    if integer and at_least != at_most:
        rule = f"an integer {rule}"
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        rule = rule if integer else "a number"
    elif (value == value and (value > 0 or not positive)
          and (at_least is None or value >= at_least)
          and (at_most is None or value <= at_most)):
        if not (finite and math.isinf(value)):
            return value
        rule = "finite"
    raise ValueError(f"{name} must be {rule}, got {value!r}")


def as_seconds(t: datetime) -> float:
    return (t - TIME_REF).total_seconds()


def from_seconds(s: float) -> datetime:
    return TIME_REF + timedelta(seconds=s)


@dataclass(frozen=True)
class DevicePoint:
    """One sampled mobile-device fix with ranked activity estimates."""

    time: datetime
    device_id: int
    lat: float
    lng: float
    accuracy: float
    activities: tuple[tuple[Activity, int], ...]

    @property
    def top_activity(self) -> Optional[Activity]:
        return self.activities[0][0] if self.activities else None

    @property
    def geo(self) -> GeoPoint:
        return GeoPoint(self.lat, self.lng)


@dataclass(frozen=True)
class FilteredPoint:
    """One row of the filtered device table: position plus winning activity."""

    time: datetime
    device_id: int
    lat: float
    lng: float
    activity: Activity


#: activity codes of TraceColumns index this tuple
ACTIVITIES = tuple(Activity)
_TRACE_DTYPES = (np.float64, np.int64, np.float64, np.float64, np.int8)


@dataclass(frozen=True, eq=False)
class TraceColumns:
    """The filtered device table as parallel columns. The loader and
    from_points sort the rows by (device_id, time), rows of an equal key in
    input order; an activity segment is a slice of those rows."""

    times_s: np.ndarray    # float64, seconds after TIME_REF
    device_id: np.ndarray  # int64
    lats: np.ndarray       # float64
    lngs: np.ndarray       # float64
    activity: np.ndarray   # int8 index into ACTIVITIES

    @classmethod
    def from_points(cls, points: Iterable[FilteredPoint]) -> "TraceColumns":
        rows = [(as_seconds(p.time), p.device_id, p.lat, p.lng,
                 ACTIVITIES.index(p.activity)) for p in points]
        columns = zip(*rows) if rows else [()] * len(_TRACE_DTYPES)
        return cls(*map(np.array, columns, _TRACE_DTYPES)).by_device()

    @classmethod
    def concat(cls, parts: Sequence["TraceColumns"]) -> "TraceColumns":
        """The rows of parts, one after another."""
        return cls(*map(np.concatenate, zip(*(vars(p).values() for p in parts))))

    def by_device(self) -> "TraceColumns":
        """The rows stably sorted by (device_id, time)."""
        return self[np.lexsort((self.times_s, self.device_id))]

    def __len__(self) -> int:
        return len(self.times_s)

    def __getitem__(self, rows) -> "TraceColumns":
        """The rows selected by a slice or an index array."""
        return TraceColumns(*(column[rows] for column in vars(self).values()))

    def __iter__(self) -> Iterator[FilteredPoint]:
        """The rows as FilteredPoint objects (not for the hot path)."""
        for t, device_id, lat, lng, a in zip(*(column.tolist()
                                               for column in vars(self).values())):
            yield FilteredPoint(from_seconds(t), device_id, lat, lng, ACTIVITIES[a])


@dataclass(frozen=True)
class VehiclePosition:
    """One live fleet sample."""

    time: datetime
    lat: float
    lng: float
    line_type: LineType
    line_name: str
    vehicle_ref: str


#: line_type codes of FleetColumns index this tuple
LINE_TYPES = tuple(LineType)


@dataclass(frozen=True, eq=False)
class FleetColumns:
    """Live fleet positions as parallel columns, one entry per row in input
    order. Names and refs are dictionary-encoded: row i belongs to vehicle
    refs[vehicle_ref[i]] on line names[line_name[i]]."""

    times_s: np.ndarray     # float64, seconds after TIME_REF
    lats: np.ndarray        # float64
    lngs: np.ndarray        # float64
    line_type: np.ndarray   # int8 index into LINE_TYPES
    line_name: np.ndarray   # int32 index into names
    vehicle_ref: np.ndarray  # int32 index into refs
    names: tuple[str, ...]
    refs: tuple[str, ...]

    @classmethod
    def from_positions(cls, positions: Iterable[VehiclePosition]) -> "FleetColumns":
        rows = list(positions)
        names: dict[str, int] = {}
        refs: dict[str, int] = {}
        return cls(
            times_s=np.array([as_seconds(r.time) for r in rows], dtype=np.float64),
            lats=np.array([r.lat for r in rows], dtype=np.float64),
            lngs=np.array([r.lng for r in rows], dtype=np.float64),
            line_type=np.array([LINE_TYPES.index(r.line_type) for r in rows],
                               dtype=np.int8),
            line_name=np.array([names.setdefault(r.line_name, len(names))
                                for r in rows], dtype=np.int32),
            vehicle_ref=np.array([refs.setdefault(r.vehicle_ref, len(refs))
                                  for r in rows], dtype=np.int32),
            names=tuple(names),
            refs=tuple(refs),
        )

    def __len__(self) -> int:
        return len(self.times_s)

    def time_sorts(self, vehicle: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(by_time, by_vehicle): the rows stably sorted by time, and the
        stable order of vehicle, codes in [0, len(refs)), taken in that
        order. by_time[by_vehicle] then sorts the rows by (vehicle, time),
        rows of an equal key in input order, as np.lexsort((times_s,
        vehicle)) does. The time sort is near-linear on a feed in time
        order; the codes are sorted in the narrowest unsigned type, which
        numpy radix-sorts up to 65,536 vehicles."""
        by_time = np.argsort(self.times_s, kind="stable")
        codes = vehicle.astype(np.min_scalar_type(max(len(self.refs) - 1, 0)))
        return by_time, np.argsort(codes[by_time], kind="stable")

    def __iter__(self) -> Iterator[VehiclePosition]:
        """The rows as VehiclePosition objects (for inspection, not the hot
        path)."""
        for t, lat, lng, lt, name, ref in zip(
                self.times_s.tolist(), self.lats.tolist(), self.lngs.tolist(),
                self.line_type.tolist(), self.line_name.tolist(),
                self.vehicle_ref.tolist()):
            yield VehiclePosition(from_seconds(t), lat, lng, LINE_TYPES[lt],
                                  self.names[name], self.refs[ref])


@dataclass(frozen=True)
class ManualTrip:
    """One manually logged trip leg from the travel diary."""

    device_id: int
    line_type: LineType
    line_name: str
    vehicle_dep_time: Optional[datetime]
    vehicle_arr_time: Optional[datetime]
    st_entrance: str = ""
    st_entry_time: Optional[datetime] = None
    vehicle_dep_stop: str = ""
    vehicle_arr_stop: str = ""
    st_exit_location: str = ""
    st_exit_time: Optional[datetime] = None
    comments: str = ""

    @property
    def start(self) -> Optional[datetime]:
        """Best available trip start: vehicle departure, else station entry."""
        return self.vehicle_dep_time or self.st_entry_time

    @property
    def end(self) -> Optional[datetime]:
        """Best available trip end: vehicle arrival, else station exit."""
        return self.vehicle_arr_time or self.st_exit_time


@dataclass(frozen=True)
class DeviceModelEntry:
    device_id: int
    model: str


@dataclass(frozen=True, eq=False)
class ActivitySegment:
    """A maximal same-activity run of one device; the unit of recognition.
    trace is its rows of the filtered table, a slice of its columns; the
    start and end times are computed once, on first use."""

    segment_id: int
    device_id: int
    activity: Activity
    trace: TraceColumns

    def __post_init__(self) -> None:
        if not len(self.trace):
            raise ValueError("segment must contain at least one point")

    @cached_property
    def start_time(self) -> datetime:
        return from_seconds(self.trace.times_s[0])

    @cached_property
    def end_time(self) -> datetime:
        return from_seconds(self.trace.times_s[-1])

    @property
    def duration_s(self) -> float:
        return seconds_between(self.start_time, self.end_time)

    @property
    def midpoint_time(self) -> datetime:
        return self.start_time + (self.end_time - self.start_time) / 2
