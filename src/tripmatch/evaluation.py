"""Join per-segment recognitions to the manual travel diary and build the
method-comparison statistics.

Counting rules:

* A trip is credited at type level when an overlapping same-device segment
  carries a result with the trip's line type.
* Name-level credit additionally requires the line name to match; subway
  trips are never name-compared (their logged names are directional labels),
  so subway credit is type-only.
* A result whose line type matches none of the trips its segment overlaps is
  a false-type recognition: it still marks those trips as "recognised by
  something" (the gap between the Public transport and line-type totals) but
  credits no mode row. A result overlapping several trips otherwise credits
  only the type-matching ones.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

from .ingest import format_timestamp, write_csv
from .segmentation import overlap
from .types import (
    Activity,
    ActivitySegment,
    LineType,
    ManualTrip,
    PT_LINE_TYPES,
)

COMBINED = "combined"

#: inventory names, mirroring recognised / overlapping-but-unrecognised /
#: no-vehicular-segment trip lists
INV_RECOGNIZED = "recognized"
INV_OVERLAPPING = "overlapping_unrecognized"
INV_NO_SEGMENT = "no_vehicular_segment"


@dataclass(frozen=True)
class Recognition:
    """Line identity a matcher assigned to one segment."""

    line_type: LineType
    line_name: str


@dataclass
class MethodOutcome:
    recognized_any: bool = False
    recognized_type: bool = False
    recognized_identity: bool = False  # type plus name, name waived for subway


@dataclass
class TripVerdict:
    trip: ManualTrip
    segments: list[ActivitySegment]
    outcomes: dict[str, MethodOutcome]
    segment_recognitions: dict[int, dict[str, Recognition]]

    @property
    def has_vehicular_segment(self) -> bool:
        return any(s.activity is Activity.IN_VEHICLE for s in self.segments)

    @property
    def listed_segments(self) -> list[ActivitySegment]:
        """The segments a trip inventory lists: all of them when none is
        vehicular, else the IN_VEHICLE and ON_BICYCLE ones."""
        if not self.has_vehicular_segment:
            return self.segments
        return [s for s in self.segments
                if s.activity in (Activity.IN_VEHICLE, Activity.ON_BICYCLE)]

    def inventory(self, method: str) -> str:
        if not self.has_vehicular_segment:
            return INV_NO_SEGMENT
        if self.outcomes[method].recognized_identity:
            return INV_RECOGNIZED
        return INV_OVERLAPPING


def normalize_name(name: str) -> str:
    return name.strip().upper()


def _strip_variant(name: str) -> str:
    return name.rstrip("ABCDEFGHIJKLMNOPQRSTUVWXYZ")


def names_match(trip: ManualTrip, recognition: Recognition) -> bool:
    """Case-insensitive name comparison; bus names fall back to comparing
    numeric cores when the exact form differs only by a variant suffix."""
    logged = normalize_name(trip.line_name)
    found = normalize_name(recognition.line_name)
    if not logged or not found:
        return False
    if logged == found:
        return True
    if trip.line_type is LineType.BUS and recognition.line_type is LineType.BUS:
        a, b = _strip_variant(logged), _strip_variant(found)
        return bool(a) and a == b
    return False


def join_trips(trips: Sequence[ManualTrip],
               segments: Sequence[ActivitySegment],
               recognitions: Mapping[str, Mapping[int, Recognition]],
               ) -> list[TripVerdict]:
    """Link every logged trip to its overlapping same-device segments and
    apply the crediting rules for each method."""
    methods = list(recognitions)
    by_device: dict[int, list[ActivitySegment]] = {}
    for s in segments:
        by_device.setdefault(s.device_id, []).append(s)
    for stream in by_device.values():
        stream.sort(key=lambda s: s.start_time)

    trip_segments: list[list[ActivitySegment]] = []
    trips_by_segment: dict[int, list[ManualTrip]] = {}
    for trip in trips:
        linked = [s for s in by_device.get(trip.device_id, ())
                  if overlap(s, trip)[0]]
        trip_segments.append(linked)
        for s in linked:
            trips_by_segment.setdefault(s.segment_id, []).append(trip)

    verdicts: list[TripVerdict] = []
    for trip, linked in zip(trips, trip_segments):
        outcomes = {m: MethodOutcome() for m in methods}
        seg_recs: dict[int, dict[str, Recognition]] = {}
        for s in linked:
            for method in methods:
                rec = recognitions[method].get(s.segment_id)
                if rec is None:
                    continue
                seg_recs.setdefault(s.segment_id, {})[method] = rec
                outcome = outcomes[method]
                if rec.line_type == trip.line_type:
                    outcome.recognized_any = True
                    outcome.recognized_type = True
                    if (trip.line_type is LineType.SUBWAY
                            or names_match(trip, rec)):
                        outcome.recognized_identity = True
                else:
                    peers = trips_by_segment[s.segment_id]
                    if all(rec.line_type != other.line_type for other in peers):
                        outcome.recognized_any = True
        verdicts.append(TripVerdict(trip, linked, outcomes, seg_recs))
    return verdicts


@dataclass
class TypeStats:
    recognized: int = 0
    name_correct: Optional[int] = 0
    logged: int = 0


@dataclass
class MethodStats:
    per_type: dict[LineType, TypeStats]
    public_transport: int = 0            # recognised by anything at all
    public_transport_line_type: int = 0  # recognised with the correct type
    logged_total: int = 0
    car_logged: int = 0
    car_recognized: int = 0              # negative control; must stay 0


#: each metric that a gate may name, in lower case, read from a MethodStats
GATE_METRICS: dict[str, Callable[[MethodStats], int]] = {
    "public_transport": lambda ms: ms.public_transport,
    "public_transport_line_type": lambda ms: ms.public_transport_line_type,
    "car_recognized": lambda ms: ms.car_recognized,
    **{lt.value.lower(): lambda ms, lt=lt: ms.per_type[lt].recognized
       for lt in PT_LINE_TYPES},
    **{f"{lt.value.lower()}_name": lambda ms, lt=lt: ms.per_type[lt].name_correct
       for lt in PT_LINE_TYPES if lt is not LineType.SUBWAY},
}


def _combined_outcome(verdict: TripVerdict, methods: Sequence[str],
                      ) -> MethodOutcome:
    merged = MethodOutcome()
    for m in methods:
        o = verdict.outcomes[m]
        merged.recognized_any |= o.recognized_any
        merged.recognized_type |= o.recognized_type
        merged.recognized_identity |= o.recognized_identity
    return merged


def compute_stats(verdicts: Sequence[TripVerdict],
                  methods: Sequence[str]) -> dict[str, MethodStats]:
    """Per-method statistics plus the combined column (a trip counts for
    combined when any selected method recognised it)."""
    out: dict[str, MethodStats] = {}
    for method in [*methods, COMBINED]:
        stats = MethodStats(per_type={lt: TypeStats() for lt in PT_LINE_TYPES})
        for verdict in verdicts:
            trip = verdict.trip
            outcome = (_combined_outcome(verdict, methods)
                       if method == COMBINED else verdict.outcomes[method])
            if trip.line_type is LineType.CAR:
                stats.car_logged += 1
                if outcome.recognized_any:
                    stats.car_recognized += 1
                continue
            ts = stats.per_type[trip.line_type]
            ts.logged += 1
            stats.logged_total += 1
            if outcome.recognized_any:
                stats.public_transport += 1
            if outcome.recognized_type:
                stats.public_transport_line_type += 1
                ts.recognized += 1
            if outcome.recognized_identity and trip.line_type is not LineType.SUBWAY:
                ts.name_correct = (ts.name_correct or 0) + 1
        stats.per_type[LineType.SUBWAY].name_correct = None
        out[method] = stats
    return out


_ROW_LABELS: list[tuple[str, LineType, bool]] = [
    ("Bus", LineType.BUS, False),
    ("Bus (line name)", LineType.BUS, True),
    ("Tram", LineType.TRAM, False),
    ("Tram (line name)", LineType.TRAM, True),
    ("Train", LineType.TRAIN, False),
    ("Train (line name)", LineType.TRAIN, True),
    ("Subway", LineType.SUBWAY, False),
]


def _method_label(method: str) -> str:
    return {"new-live": "New live", "old-live": "Old live",
            "static": "Static", COMBINED: "Combined"}.get(method, method)


def render_report_text(stats: Mapping[str, MethodStats],
                       verdicts: Sequence[TripVerdict]) -> str:
    """report.txt: the Table 7 counts per method, then each method's trip
    inventories."""
    methods = list(stats)
    out = io.StringIO()
    headers = ["", *(_method_label(m) for m in methods), "Logged"]
    first = next(iter(stats.values()))
    rows: list[list[str]] = []
    for label, lt, is_name in _ROW_LABELS:
        cells = [label]
        for m in methods:
            ts = stats[m].per_type[lt]
            value = ts.name_correct if is_name else ts.recognized
            cells.append("-" if value is None else str(value))
        cells.append(str(first.per_type[lt].logged))
        rows.append(cells)
    rows.append(["Public transport",
                 *(str(stats[m].public_transport) for m in methods),
                 str(first.logged_total)])
    rows.append(["Public transport (line type)",
                 *(str(stats[m].public_transport_line_type) for m in methods),
                 str(first.logged_total)])

    widths = [max(len(r[i]) for r in [headers, *rows]) for i in range(len(headers))]
    def fmt(cells): return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    out.write("Trip matching statistics\n")
    out.write(fmt(headers) + "\n")
    out.write("-" * (sum(widths) + 2 * (len(widths) - 1)) + "\n")
    for r in rows:
        out.write(fmt(r) + "\n")

    negative = [f"{m}: {stats[m].car_recognized}/{stats[m].car_logged}"
                for m in methods if stats[m].car_logged]
    if negative:
        out.write("\nCar trips recognised as public transport "
                  "(should be 0): " + ", ".join(negative) + "\n")

    per_method = [m for m in methods if m != COMBINED]
    for method in per_method:
        out.write(f"\n=== {_method_label(method)}: trip inventories ===\n")
        for inventory, title in ((INV_RECOGNIZED, "recognised"),
                                 (INV_OVERLAPPING,
                                  "overlapping vehicular segment, not recognised"),
                                 (INV_NO_SEGMENT, "no overlapping vehicular segment")):
            selected = [v for v in verdicts
                        if v.trip.line_type is not LineType.CAR
                        and v.inventory(method) == inventory]
            out.write(f"[{title}] {len(selected)} trip(s)\n")
            for v in selected:
                for line in _inventory_rows(v, method):
                    out.write("  " + line + "\n")
    return out.getvalue()


def _clock(t) -> str:
    return t.strftime("%H:%M:%S") if t is not None else ""


def _inventory_rows(verdict: TripVerdict, method: str) -> list[str]:
    trip = verdict.trip
    prefix = (f"dev {trip.device_id}  {_clock(trip.start)}-{_clock(trip.end)}  "
              f"{trip.line_type.value} {trip.line_name or '-'}")
    shown = verdict.listed_segments
    if not shown:
        return [prefix + "  (no overlapping segments)"]
    lines = []
    for s in shown:
        rec = verdict.segment_recognitions.get(s.segment_id, {}).get(method)
        recd = f"{rec.line_type.value} {rec.line_name}" if rec else "-"
        lines.append(f"{prefix}  | segment {s.segment_id} "
                     f"{_clock(s.start_time)}-{_clock(s.end_time)} "
                     f"{s.activity.value} -> {recd}")
    return lines


def render_report_csv(stats: Mapping[str, MethodStats]) -> str:
    """report_stats.csv: the counts of report.txt, one row per (method,
    count)."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["method", "line_type", "recognized", "name_correct", "logged"])
    for method, ms in stats.items():
        for lt in PT_LINE_TYPES:
            ts = ms.per_type[lt]
            writer.writerow([method, lt.value, ts.recognized,
                             "" if ts.name_correct is None else ts.name_correct,
                             ts.logged])
        writer.writerow([method, "PUBLIC_TRANSPORT", ms.public_transport, "",
                         ms.logged_total])
        writer.writerow([method, "PUBLIC_TRANSPORT_LINE_TYPE",
                         ms.public_transport_line_type, "", ms.logged_total])
        writer.writerow([method, "CAR_CONTROL", ms.car_recognized, "",
                         ms.car_logged])
    return out.getvalue()


INVENTORY_CSV_COLUMNS = [
    "method", "inventory", "dev_id", "log_start", "log_end", "log_type",
    "log_name", "segment_id", "segm_start", "segm_end", "activity",
    "recd_type", "recd_name",
]


def write_inventory_csv(verdicts: Sequence[TripVerdict],
                        methods: Sequence[str], path) -> None:
    """Machine-readable trip inventories, one row per (method, trip, segment)."""
    def rows():
        for method in methods:
            for v in verdicts:
                trip = v.trip
                if trip.line_type is LineType.CAR:
                    continue
                base = [method, v.inventory(method), trip.device_id,
                        format_timestamp(trip.start) if trip.start else "",
                        format_timestamp(trip.end) if trip.end else "",
                        trip.line_type.value, trip.line_name]
                if not v.listed_segments:
                    yield base + [""] * 6
                for s in v.listed_segments:
                    rec = v.segment_recognitions.get(s.segment_id, {}).get(method)
                    yield base + [s.segment_id, format_timestamp(s.start_time),
                                  format_timestamp(s.end_time), s.activity.value,
                                  rec.line_type.value if rec else "",
                                  rec.line_name if rec else ""]

    write_csv(path, INVENTORY_CSV_COLUMNS, rows())
