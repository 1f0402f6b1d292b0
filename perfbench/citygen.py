"""Seeded synthetic-city generator for the benchmark workloads.

A city is a grid of straight transit lines. Vehicles run blocks of
consecutive trips back and forth along their line, so one vehicle serves
many GTFS trips and appears in the live feed for its whole block. Blocks
are shift-length: every all-day slot changes vehicle every ``SHIFT_S``, and
surface lines add peak-only vehicles, so at any time only part of the fleet
is on the road. The weekday service runs past midnight, and the timetable
also carries Saturday and Sunday services that do not run on the trial day.
Riders
take a fixed mix of line classes (the seed picks lines, times, stops and
noise, never the mix), and one device drives diagonal car trips as the
negative control. Lines of the suburban classes lie far outside the
riders' district: they only add feed and timetable volume.

Inputs are written through ``tripmatch.ingest.write_*`` and the GTFS text
format, so the pipeline's strict loaders parse them. ``truth.json`` records
every planted trip, the row counts of every table and the distinct vehicle
count, the share of GTFS trips that run on the trial day, and for every
vehicular segment the share of the fleet that has a fix in its matching
window.

None of these traffic shapes is published for the field trial; they are
assumptions of this generator: 8.5 h shifts, two weekday peaks
(07:00-09:00 and 15:30-18:00) at twice the base frequency on tram and bus
lines, weekday service until 00:30 of the next day, and weekend services at
one half (Saturday) and one third (Sunday) of the weekday frequency.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass, replace
from datetime import date, datetime, timedelta
from pathlib import Path

import numpy as np
import yaml

from tripmatch import ingest
from tripmatch.geodesy import EARTH_RADIUS_M
from tripmatch.live import LiveMatchConfig
from tripmatch.types import Activity, FilteredPoint, LineType, ManualTrip, VehiclePosition

DAY = date(2016, 8, 26)  # a Friday
MIDNIGHT = datetime(DAY.year, DAY.month, DAY.day)
ORIGIN_LAT, ORIGIN_LNG = 60.150, 24.900

LIVE_FIX_S = 30
DEVICE_FIX_S = 10
LAYOVER_S = 180
LINE_GAP_M = 600.0        # parallel lines never share a street
SUBURB_EAST_M = 30_000.0  # suburban lines start this far east of the district
CAR_SPEED_MPS = 12.0
CAR_LEG_M = 2_800.0       # east and north extent of one diagonal car trip
RIDER_END_MARGIN_S = 2400  # riders start their last ride this long before the feed ends
SHIFT_S = 8 * 3600 + 1800  # an all-day slot changes vehicle after this long
SHIFT_STAGGER_S = 3600     # handovers of a line's slots spread over this long

GTFS_ROUTE_TYPE = {LineType.TRAM: 0, LineType.SUBWAY: 1, LineType.TRAIN: 2,
                   LineType.BUS: 3, LineType.FERRY: 4}


def _hms(h: int, m: int = 0) -> int:
    return h * 3600 + m * 60


PEAKS = ((_hms(7), _hms(9)), (_hms(15, 30), _hms(18)))
WEEKDAY_SERVICE = (_hms(5), _hms(24, 30))  # first and last departure
# service_id: (runs Monday..Sunday, first and last departure, headway factor);
# only the weekday service feeds the live feed
SERVICES = {
    "wd": ((1, 1, 1, 1, 1, 0, 0), WEEKDAY_SERVICE, 1),
    "sa": ((0, 0, 0, 0, 0, 1, 0), (_hms(6), _hms(24, 30)), 2),
    "su": ((0, 0, 0, 0, 0, 0, 1), (_hms(7), _hms(23, 30)), 3),
}


@dataclass(frozen=True)
class LineClass:
    key: str
    line_type: LineType
    speed_mps: float
    headway_s: int
    lines: int
    stops: int
    spacing_m: float
    in_live: bool = True
    suburban: bool = False
    with_shape: bool = False
    peak_extra: bool = False  # peak-only vehicles double the frequency


@dataclass(frozen=True)
class Workload:
    name: str
    classes: tuple[LineClass, ...]
    riders: int
    rides_per_rider: int
    ride_mix: tuple[str, ...]  # class keys, cycled per ride
    car_trips: int
    live_s: tuple[int, int]  # the fleet feed's time window

    def scaled(self, factor: float) -> "Workload":
        """A smaller city of the same shape, for smoke tests."""
        if factor >= 1.0:
            return self

        def shrink(n: int, least: int) -> int:
            return max(least, round(n * factor))

        return replace(
            self,
            classes=tuple(replace(c, lines=shrink(c.lines, 1))
                          for c in self.classes),
            riders=shrink(self.riders, 2),
            rides_per_rider=shrink(self.rides_per_rider, 3),
            car_trips=shrink(self.car_trips, 1),
        )


TRAM = LineClass("tram", LineType.TRAM, 4.5, 480, 3, 12, 450.0,
                 with_shape=True, peak_extra=True)
BUS = LineClass("bus", LineType.BUS, 5.5, 600, 3, 12, 450.0, peak_extra=True)
# The subway runs well above the speed at which four-sample point matching
# starts missing, and the surface lines well below it, so the old-live
# recall of a workload hardly depends on its seed.
SUBWAY = LineClass("subway", LineType.SUBWAY, 22.0, 300, 2, 6, 1200.0)
TRAIN = LineClass("train", LineType.TRAIN, 16.7, 1200, 1, 5, 1500.0,
                  in_live=False)
RIDE_MIX = ("tram", "bus", "subway", "tram", "bus", "tram", "train",
            "bus", "subway", "bus")

WORKLOADS = {w.name: w for w in [
    # The field-trial day: live fleet city-wide, so fleet ingest, index build
    # and live matching carry the run.
    Workload(
        "published-day",
        classes=(TRAM, BUS, SUBWAY, TRAIN,
                 LineClass("suburb", LineType.BUS, 8.0, 1200, 24, 12, 800.0,
                           suburban=True)),
        riders=7, rides_per_rider=14, ride_mix=RIDE_MIX, car_trips=6,
        live_s=(_hms(6), _hms(22)),
    ),
    # The same riders, a fleet feed for the ridden lines only, and a
    # region-wide all-day timetable nobody rides: GTFS load and planner build
    # carry the run.
    Workload(
        "timetable-heavy",
        classes=(replace(TRAM, lines=1, headway_s=900),
                 replace(BUS, lines=1, headway_s=900),
                 replace(SUBWAY, lines=1, headway_s=900), TRAIN,
                 LineClass("regional", LineType.BUS, 8.0, 300, 20, 20, 600.0,
                           in_live=False, suburban=True)),
        riders=7, rides_per_rider=14, ride_mix=RIDE_MIX, car_trips=6,
        live_s=(_hms(6), _hms(16)),
    ),
    # Six times the riders on a dense short-headway network: the indexes are
    # queried far more often than they are built, so per-segment live and
    # static work carry the run.
    Workload(
        "many-riders",
        classes=(replace(TRAM, lines=4, headway_s=240, peak_extra=False),
                 replace(BUS, lines=4, headway_s=300, peak_extra=False),
                 replace(SUBWAY, headway_s=180), TRAIN),
        riders=12, rides_per_rider=14, ride_mix=RIDE_MIX, car_trips=8,
        live_s=(_hms(6), _hms(12, 30)),
    ),
]}


@dataclass
class Line:
    key: str
    cls: LineClass
    name: str
    xy: np.ndarray  # (stops, 2) east/north metres, forward order

    @property
    def hop_s(self) -> int:
        return round(self.cls.spacing_m / self.cls.speed_mps)

    @property
    def run_s(self) -> int:
        return self.hop_s * (len(self.xy) - 1)

    def stop_id(self, i: int) -> str:
        return f"{self.key}:{i}"


@dataclass
class Trip:
    trip_id: str
    line: Line
    forward: bool
    dep_s: int
    vehicle_ref: str
    service_id: str

    def stop_order(self) -> list[int]:
        order = list(range(len(self.line.xy)))
        return order if self.forward else order[::-1]

    def knots(self) -> tuple[np.ndarray, np.ndarray]:
        """Stop call times and positions in travel order."""
        times = self.dep_s + self.line.hop_s * np.arange(len(self.line.xy))
        return times, self.line.xy[self.stop_order()]

    def position(self, t_s: np.ndarray) -> np.ndarray:
        times, xy = self.knots()
        return np.column_stack([np.interp(t_s, times, xy[:, 0]),
                                np.interp(t_s, times, xy[:, 1])])


@dataclass
class PlantedTrip:
    device_id: int
    line_key: str
    line_type: str
    line_name: str
    trip_id: str
    vehicle_ref: str
    board_stop: str
    alight_stop: str
    first_fix: str
    last_fix: str
    live_expected: bool
    vehicles_active_share: float  # of the feed's vehicles, in the match window


@dataclass
class CarTrip:
    device_id: int
    first_fix: str
    last_fix: str
    vehicles_active_share: float


def _lines(workload: Workload) -> list[Line]:
    """Lay lines on the grid: district classes alternate between rows and
    columns; suburban classes fill their own rows far to the east."""
    lines: list[Line] = []
    rows = cols = suburb_rows = 0
    for cls in workload.classes:
        for i in range(cls.lines):
            length = cls.spacing_m * (cls.stops - 1)
            along = np.arange(cls.stops) * cls.spacing_m
            if cls.suburban:
                y = LINE_GAP_M * suburb_rows
                suburb_rows += 1
                xy = np.column_stack([SUBURB_EAST_M + along,
                                      np.full(cls.stops, y)])
            elif (rows + cols) % 2 == 0:
                y = 400.0 + LINE_GAP_M * rows
                rows += 1
                xy = np.column_stack([along - length / 2 + 2500.0,
                                      np.full(cls.stops, y)])
            else:
                x = 300.0 + LINE_GAP_M * cols
                cols += 1
                xy = np.column_stack([np.full(cls.stops, x),
                                      along - length / 2 + 2500.0])
            lines.append(Line(f"{cls.key}{i + 1}", cls, _line_name(cls, i + 1), xy))
    return lines


def _line_name(cls: LineClass, k: int) -> str:
    prefix = {"tram": "", "bus": "2", "subway": "M", "train": "U"}.get(cls.key, "7")
    return f"{prefix}{k}"


def _shuttle(line: Line, service_id: str, label: str, departures: tuple[int, int],
             headway_s: int, shift_s: int) -> list[list[Trip]]:
    """Vehicle blocks of one service pattern: each slot shuttles along the line
    from the first departure, with a layover at each terminal, until the last
    one, and changes vehicle after every shift_s unless fewer than three
    trips are left."""
    step = line.run_s + LAYOVER_S
    slots = max(1, math.ceil(2 * step / headway_s))
    blocks = []
    for v in range(slots):
        t = departures[0] + round(v * 2 * step / slots)
        handover = t + shift_s + round(v * SHIFT_STAGGER_S / slots)
        trips, k, shift = [], 0, 1
        while t <= departures[1]:
            if t >= handover and t + 2 * step <= departures[1]:
                blocks.append(trips)
                trips, shift, handover = [], shift + 1, handover + shift_s
            ref = f"{line.key}/{label}{v + 1:02d}-{shift}"
            trips.append(Trip(f"{line.key}-{label}{v + 1:02d}-{k:03d}", line,
                              k % 2 == 0, t, ref, service_id))
            t += step
            k += 1
        blocks.append(trips)
    return blocks


def _blocks(line: Line) -> list[list[Trip]]:
    """Every vehicle block of the line: all-day shifts of each service, and
    on peak_extra lines weekday peak-only vehicles half a headway behind the
    all-day ones."""
    blocks = []
    for service_id, (_, departures, factor) in SERVICES.items():
        blocks += _shuttle(line, service_id, service_id, departures,
                           line.cls.headway_s * factor, SHIFT_S)
    if line.cls.peak_extra:
        for n, (start, end) in enumerate(PEAKS):
            blocks += _shuttle(line, "wd", f"pk{n + 1}",
                               (start + line.cls.headway_s // 2, end),
                               line.cls.headway_s, end - start + 1)
    return blocks


def _to_latlng(xy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    lat = ORIGIN_LAT + np.degrees(xy[:, 1] / EARTH_RADIUS_M)
    lng = ORIGIN_LNG + np.degrees(
        xy[:, 0] / (EARTH_RADIUS_M * math.cos(math.radians(ORIGIN_LAT))))
    return lat, lng


def _noise(rng: np.random.Generator, n: int, sigma_m: float,
           clip_m: float) -> np.ndarray:
    return np.clip(rng.normal(0.0, sigma_m, (n, 2)), -clip_m, clip_m)


def _at(t_s: int) -> datetime:
    return MIDNIGHT + timedelta(seconds=int(t_s))


def _stamp(t_s: int) -> str:
    return ingest.format_timestamp(_at(t_s))


def _live_rows(blocks: list[list[Trip]], window: tuple[int, int],
               rng: random.Random, noise: np.random.Generator,
               ) -> list[VehiclePosition]:
    rows: list[VehiclePosition] = []
    for trips in blocks:
        line = trips[0].line
        if not line.cls.in_live:
            continue
        knot_t = np.concatenate([trip.knots()[0] for trip in trips])
        knot_xy = np.concatenate([trip.knots()[1] for trip in trips])
        start = max(window[0], int(knot_t[0])) + rng.randrange(LIVE_FIX_S)
        end = min(window[1], int(knot_t[-1]))
        if start > end:
            continue
        fix_t = np.arange(start, end + 1, LIVE_FIX_S)
        xy = np.column_stack([np.interp(fix_t, knot_t, knot_xy[:, 0]),
                              np.interp(fix_t, knot_t, knot_xy[:, 1])])
        lat, lng = _to_latlng(xy + _noise(noise, len(fix_t), 3.0, 9.0))
        ref, name, lt = trips[0].vehicle_ref, line.name, line.cls.line_type
        rows += [VehiclePosition(_at(t), la, ln, lt, name, ref)
                 for t, la, ln in zip(fix_t.tolist(), lat.tolist(), lng.tolist())]
    rows.sort(key=lambda r: (r.time, r.vehicle_ref))
    return rows


class _Rider:
    """Accumulates one device's filtered fixes."""

    def __init__(self, device_id: int, points: list[FilteredPoint],
                 noise: np.random.Generator):
        self.device_id = device_id
        self.points = points
        self.noise = noise

    def emit(self, times: np.ndarray, xy: np.ndarray, activity: Activity,
             sigma_m: float, clip_m: float) -> None:
        lat, lng = _to_latlng(xy + _noise(self.noise, len(times), sigma_m, clip_m))
        self.points += [FilteredPoint(_at(t), self.device_id, la, ln, activity)
                        for t, la, ln in zip(times.tolist(), lat.tolist(),
                                             lng.tolist())]

    def walk(self, t0: int, n: int, start: np.ndarray, step: np.ndarray,
             activity: Activity = Activity.WALKING) -> None:
        k = np.arange(n)
        self.emit(t0 + DEVICE_FIX_S * k, start + np.outer(k, step), activity,
                  8.0, 24.0)


def _heading(rng: random.Random, metres: float) -> np.ndarray:
    a = rng.uniform(0.0, 2 * math.pi)
    return np.array([metres * math.cos(a), metres * math.sin(a)])


def generate(root, workload: Workload, seed: int) -> dict:
    """Write every pipeline input for one (workload, seed) under root and
    return the truth manifest, which is also written to root/truth.json."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    noise = np.random.default_rng(seed)

    lines = _lines(workload)
    blocks = [b for line in lines for b in _blocks(line)]
    today = [b for b in blocks if b[0].service_id == "wd"]
    live = _live_rows(today, workload.live_s, rng, noise)
    tracks = _tracks(live)

    # per (line, direction): today's trips sorted by departure, for boarding
    departures: dict[tuple[str, bool], list[Trip]] = {}
    for trips in today:
        for trip in trips:
            departures.setdefault((trip.line.key, trip.forward), []).append(trip)
    for trips in departures.values():
        trips.sort(key=lambda trip: trip.dep_s)
    ridden = {c.key: [l for l in lines if l.cls is c]
              for c in workload.classes if not c.suburban}

    filtered: list[FilteredPoint] = []
    manual: list[ManualTrip] = []
    planted: list[PlantedTrip] = []
    cars: list[CarTrip] = []

    for device_id in range(1, workload.riders + 1):
        rider = _Rider(device_id, filtered, noise)
        # rides spread over the fleet feed's window, one per slot
        first = workload.live_s[0] + 1800 + rng.randrange(1800)
        slot = (workload.live_s[1] - RIDER_END_MARGIN_S - first) // workload.rides_per_rider
        ready = first
        for k in range(workload.rides_per_rider):
            ready = max(ready, first + k * slot + rng.randrange(slot // 3))
            cls_key = workload.ride_mix[(device_id + k) % len(workload.ride_mix)]
            line = rng.choice(ridden[cls_key])
            forward = rng.random() < 0.5
            n_stops = len(line.xy)
            span = rng.randint(min(4, n_stops - 1), min(7, n_stops - 1))
            board = rng.randrange(n_stops - span)
            candidates = departures[(line.key, forward)]
            trip = next(c for c in candidates
                        if c.dep_s + board * line.hop_s >= ready)
            board_s = trip.dep_s + board * line.hop_s
            alight_s = board_s + span * line.hop_s
            order = trip.stop_order()

            stop_xy = trip.position(np.array([board_s]))[0]
            rider.walk(board_s - 80, 6, stop_xy - 5 * np.array([0.0, 12.0]),
                       np.array([0.0, 12.0]))
            ride_t = np.arange(board_s, alight_s + 1, DEVICE_FIX_S)
            rider.emit(ride_t, trip.position(ride_t), Activity.IN_VEHICLE,
                       10.0, 32.0)
            end_xy = trip.position(np.array([alight_s]))[0]
            step = _heading(rng, 12.0)
            rider.walk(alight_s + 14, 8, end_xy + step, step)
            rider.walk(alight_s + 200, 6, end_xy + 9 * step, np.zeros(2),
                       Activity.STILL)

            if line.cls.in_live and alight_s > workload.live_s[1]:
                raise ValueError(f"{workload.name}: a live ride ends after "
                                 "the fleet feed; widen the feed window")
            manual.append(ManualTrip(
                device_id=device_id, line_type=line.cls.line_type,
                line_name=line.name,
                vehicle_dep_time=_at(board_s - board_s % 60),
                vehicle_arr_time=_at(alight_s + (-alight_s) % 60)))
            planted.append(PlantedTrip(
                device_id=device_id, line_key=line.key,
                line_type=line.cls.line_type.value, line_name=line.name,
                trip_id=trip.trip_id, vehicle_ref=trip.vehicle_ref,
                board_stop=line.stop_id(order[board]),
                alight_stop=line.stop_id(order[board + span]),
                first_fix=_stamp(int(ride_t[0])),
                last_fix=_stamp(int(ride_t[-1])),
                live_expected=line.cls.in_live,
                vehicles_active_share=_active_share(tracks, int(ride_t[0]),
                                                    int(ride_t[-1]))))
            ready = alight_s + 600

    car_device = workload.riders + 1
    motorist = _Rider(car_device, filtered, noise)
    t = workload.live_s[0] + 2400 + rng.randrange(1200)
    for _ in range(workload.car_trips):
        start = np.array([rng.uniform(0.0, 2000.0), rng.uniform(0.0, 1500.0)])
        sign = rng.choice((-1.0, 1.0))
        delta = np.array([CAR_LEG_M, sign * CAR_LEG_M])
        if sign < 0:
            start[1] += CAR_LEG_M
        duration = float(np.hypot(*delta)) / CAR_SPEED_MPS
        drive_t = np.arange(t, t + duration + 1, DEVICE_FIX_S)
        frac = (drive_t - t) / duration
        motorist.emit(drive_t, start + np.outer(frac, delta), Activity.IN_VEHICLE,
                    10.0, 32.0)
        last = int(drive_t[-1])
        motorist.walk(last + 200, 6, start + delta, np.zeros(2), Activity.STILL)
        manual.append(ManualTrip(
            device_id=car_device, line_type=LineType.CAR, line_name="",
            vehicle_dep_time=_at(t - t % 60),
            vehicle_arr_time=_at(last + (-last) % 60)))
        cars.append(CarTrip(car_device, _stamp(t), _stamp(last),
                            _active_share(tracks, t, last)))
        t = last + 1200 + rng.randrange(1800)

    filtered.sort(key=lambda p: (p.time, p.device_id))
    ingest.write_filtered_data(filtered, root / "device_data_filtered.csv")
    ingest.write_transit_live(live, root / "transit_live.csv")
    ingest.write_manual_log(manual, root / "manual_log.csv")
    gtfs_counts = _write_gtfs(root / "gtfs", lines, blocks)
    (root / "config.yaml").write_text(yaml.safe_dump({
        "data_dir": ".", "gtfs": "gtfs", "date": str(DAY),
        "methods": ["new-live", "old-live", "static"], "jobs": 1,
    }), encoding="utf-8")

    all_trips = [trip for trips in blocks for trip in trips]
    truth = {
        "workload": workload.name,
        "seed": seed,
        "planted_trips": [asdict(p) for p in planted],
        "car_trips": [asdict(c) for c in cars],
        "pt_trips": len(planted),
        "vehicular_segments_expected": len(planted) + len(cars),
        "rows": {"device_data_filtered": len(filtered),
                 "transit_live": len(live),
                 "manual_log": len(manual),
                 **{f"gtfs_{k}": v for k, v in gtfs_counts.items()}},
        "vehicles": len({r.vehicle_ref for r in live}),
        "vehicles_active_share_median": float(np.median(
            [r.vehicles_active_share for r in [*planted, *cars]])),
        "trips_on_date_share": sum(t.service_id == "wd" for t in all_trips)
        / len(all_trips),
        "trips_past_midnight": sum(
            t.dep_s + t.line.run_s > 24 * 3600 for t in all_trips),
    }
    (root / "truth.json").write_text(json.dumps(truth, indent=1),
                                     encoding="utf-8")
    return truth


def _tracks(live: list[VehiclePosition]) -> list[np.ndarray]:
    """Each vehicle's fix times, seconds after midnight, in order."""
    times: dict[str, list[int]] = {}
    for r in live:
        times.setdefault(r.vehicle_ref, []).append(
            int((r.time - MIDNIGHT).total_seconds()))
    return [np.array(sorted(t)) for t in times.values()]


def _active_share(tracks: list[np.ndarray], first_s: int, last_s: int) -> float:
    """Share of the feed's vehicles with a fix in a segment's live-matching
    window, [first_s - window_s, last_s + window_s]."""
    window_s = LiveMatchConfig().window_s
    t0, t1 = first_s - window_s, last_s + window_s
    active = 0
    for times in tracks:
        i = int(np.searchsorted(times, t0))
        active += i < len(times) and times[i] <= t1
    return active / len(tracks)


def _gtfs_clock(t_s: int) -> str:
    return f"{t_s // 3600:02d}:{t_s % 3600 // 60:02d}:{t_s % 60:02d}"


def _write_gtfs(gtfs_dir: Path, lines: list[Line],
                blocks: list[list[Trip]]) -> dict[str, int]:
    gtfs_dir.mkdir(parents=True, exist_ok=True)
    counts: dict[str, int] = {}

    def write(name: str, header: str, rows: list[str]) -> None:
        (gtfs_dir / name).write_text("\n".join([header, *rows]) + "\n",
                                     encoding="utf-8")
        counts[name[:-4]] = len(rows)

    stop_rows, shape_rows = [], []
    for line in lines:
        lat, lng = _to_latlng(line.xy)
        for i in range(len(line.xy)):
            stop_rows.append(f"{line.stop_id(i)},{line.key} stop {i},"
                             f"{lat[i]:.6f},{lng[i]:.6f}")
        if line.cls.with_shape:
            for direction, order in (("f", range(len(lat))),
                                     ("b", range(len(lat) - 1, -1, -1))):
                shape_rows += [f"{line.key}-{direction},{lat[i]:.6f},"
                               f"{lng[i]:.6f},{n + 1}"
                               for n, i in enumerate(order)]
    write("stops.txt", "stop_id,stop_name,stop_lat,stop_lon", stop_rows)
    write("routes.txt", "route_id,route_short_name,route_type",
          [f"{l.key},{l.name},{GTFS_ROUTE_TYPE[l.cls.line_type]}" for l in lines])

    trip_rows, st_rows = [], []
    for trips in blocks:
        for trip in trips:
            line = trip.line
            shape = (f"{line.key}-{'f' if trip.forward else 'b'}"
                     if line.cls.with_shape else "")
            trip_rows.append(f"{trip.trip_id},{line.key},{trip.service_id},"
                             f"{shape}")
            for seq, stop in enumerate(trip.stop_order()):
                clock = _gtfs_clock(trip.dep_s + seq * line.hop_s)
                st_rows.append(f"{trip.trip_id},{line.stop_id(stop)},"
                               f"{clock},{clock},{seq + 1}")
    write("trips.txt", "trip_id,route_id,service_id,shape_id", trip_rows)
    write("stop_times.txt",
          "trip_id,stop_id,arrival_time,departure_time,stop_sequence", st_rows)
    write("shapes.txt", "shape_id,shape_pt_lat,shape_pt_lon,shape_pt_sequence",
          shape_rows)
    write("calendar.txt", "service_id,monday,tuesday,wednesday,thursday,"
          "friday,saturday,sunday,start_date,end_date",
          [f"{service_id},{','.join(map(str, days))},20160801,20160930"
           for service_id, (days, _, _) in SERVICES.items()])
    return counts
