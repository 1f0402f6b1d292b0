#!/usr/bin/env python3
"""Show where point-to-point vehicle matching breaks down as speed grows.

A synthetic vehicle drives a straight line emitting fixes every 30 s with a
rider aboard sampling every 30 s, phase-shifted 15 s (the worst case for
point matching). With a 100 m distance limit the nearest fix moves out of
range once the vehicle exceeds 2 x 100 m / 30 s = 24 km/h, while linestring
interpolation keeps matching.

Usage: python scripts/speed_threshold_demo.py [--speeds 10,20,24,30,50,80]
"""
import argparse
from datetime import datetime, timedelta

from tripmatch.geodesy import offset_point
from tripmatch.live import (
    LiveMatchConfig,
    PositionIndex,
    match_live,
    match_live_old,
)
from tripmatch.types import (
    Activity,
    ActivitySegment,
    FilteredPoint,
    FleetColumns,
    GeoPoint,
    LineType,
    TraceColumns,
    VehiclePosition,
)

BASE = GeoPoint(60.17, 24.94)
T0 = datetime(2016, 8, 26, 12, 0, 0)


def scenario(speed_kmh: float, duration_s: float = 600.0):
    v = speed_kmh / 3.6
    rows = [VehiclePosition(T0 + timedelta(seconds=t),
                            *offset_point(BASE, 0.0, v * t),
                            LineType.BUS, "16", "veh1")
            for t in range(0, int(duration_s) + 1, 30)]
    pts = [FilteredPoint(T0 + timedelta(seconds=t), 1,
                         *offset_point(BASE, 0.0, v * t),
                         Activity.IN_VEHICLE)
           for t in range(15, int(duration_s) - 14, 30)]
    return (ActivitySegment(1, 1, Activity.IN_VEHICLE,
                            TraceColumns.from_points(pts)),
            PositionIndex(FleetColumns.from_positions(rows)))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--speeds", default="10,20,24,30,50,80")
    args = parser.parse_args()
    cfg = LiveMatchConfig()

    print(f"{'speed':>8}  {'fix gap':>8}  {'old live':>9}  {'new live':>9}")
    for text in args.speeds.split(","):
        speed = float(text)
        gap_m = speed / 3.6 * 30.0
        segment, index = scenario(speed)
        old = match_live_old(segment, cfg, index)
        new = match_live(segment, cfg, index)
        print(f"{speed:6.0f} km/h  {gap_m:6.0f} m  "
              f"{'match' if old else 'miss':>9}  "
              f"{'match' if new else 'miss':>9}")


if __name__ == "__main__":
    main()
