"""Score one run's output directory against the truth manifest.

One operation is one (vehicular segment, method) match. It fails when the
method names a line other than the planted ride's line, or recognises
anything on a car segment; a run that raised fails all of its operations.
Recall counts planted public-transport rides recognised at line-type level.
"""
from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass, field
from pathlib import Path

METHODS = ("new-live", "old-live", "static")
MATCH_FILES = {m: f"matches_{m.replace('-', '_')}.csv" for m in METHODS}
OUTPUT_FILES = ("segments.csv", *MATCH_FILES.values(), "static_assessments.csv",
                "report.txt", "report_stats.csv", "trip_inventory.csv")


@dataclass
class Score:
    attempted: int = 0
    failed: int = 0
    recognised: dict[str, int] = field(default_factory=dict)  # method -> rides
    pt_trips: int = 0
    car_recognised: int = 0
    problems: list[str] = field(default_factory=list)

    def recall(self, method: str) -> float:
        return self.recognised[method] / self.pt_trips


def digests(out_dir: Path) -> dict[str, str]:
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in OUTPUT_FILES}


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def score(out_dir: Path, truth: dict) -> Score:
    s = Score(pt_trips=truth["pt_trips"])
    problems = s.problems
    planted = {(p["device_id"], p["first_fix"]): p for p in truth["planted_trips"]}
    cars = {(c["device_id"], c["first_fix"]) for c in truth["car_trips"]}

    truth_of: dict[str, dict | None] = {}  # segment id -> planted ride, None for a car
    for row in _rows(out_dir / "segments.csv"):
        if row["activity"] != "IN_VEHICLE" or int(row["n_points"]) < 2:
            continue
        key = (int(row["device_id"]), row["start"])
        if key in planted and planted[key]["last_fix"] == row["end"]:
            truth_of[row["id"]] = planted[key]
        elif key in cars:
            truth_of[row["id"]] = None
        else:
            problems.append(f"vehicular segment {row['id']} matches no "
                            "planted trip")
    if len(truth_of) != truth["vehicular_segments_expected"]:
        problems.append(f"{len(truth_of)} vehicular segments, expected "
                        f"{truth['vehicular_segments_expected']}")

    found: dict[str, set[str]] = {}  # method -> segments of rides recognised
    cars_hit: set[str] = set()
    for method in METHODS:
        results = {r["segment_id"]: r for r in _rows(out_dir / MATCH_FILES[method])}
        found[method] = set()
        for segment_id, ride in truth_of.items():
            s.attempted += 1
            r = results.get(segment_id)
            if r is None:
                continue
            if ride is None:
                s.failed += 1
                cars_hit.add(segment_id)
                continue
            if (r["recd_type"], r["recd_name"]) != (ride["line_type"],
                                                    ride["line_name"]):
                s.failed += 1
                problems.append(
                    f"{method}: segment {segment_id} named {r['recd_type']} "
                    f"{r['recd_name']}, rode {ride['line_type']} "
                    f"{ride['line_name']}")
            if r["recd_type"] == ride["line_type"]:
                found[method].add(segment_id)
        if set(results) - set(truth_of):
            problems.append(f"{method}: results for non-candidate segments")
    found["combined"] = set().union(*found.values())
    s.recognised = {m: len(ids) for m, ids in found.items()}
    s.car_recognised = len(cars_hit)

    # the evaluation layer must agree with the truth manifest
    report = {(r["method"], r["line_type"]): r
              for r in _rows(out_dir / "report_stats.csv")}
    for method, count in s.recognised.items():
        row = report[(method, "PUBLIC_TRANSPORT_LINE_TYPE")]
        if (int(row["recognized"]), int(row["logged"])) != (count, s.pt_trips):
            problems.append(f"report_stats {method}: {row['recognized']}/"
                            f"{row['logged']} recognised, truth says "
                            f"{count}/{s.pt_trips}")
    if int(report[("combined", "CAR_CONTROL")]["recognized"]) != s.car_recognised:
        problems.append("report_stats car control disagrees with truth")

    missed = [i for i, ride in truth_of.items() if ride is not None
              and ride["live_expected"] and i not in found["new-live"]]
    if missed:
        problems.append(f"new-live missed {len(missed)} planted live ride(s), "
                        f"first in segment {missed[0]}")
    return s
