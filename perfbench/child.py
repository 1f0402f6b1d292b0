"""Run one full ``tripmatch run`` pipeline in this process and print its
measurements as one JSON line.

Usage: python3 child.py DATASET_DIR OUT_DIR [--trace]

Untraced, the only timers are the six hooks of ``layers.STAGE_HOOKS``
around pipeline stages: the four set-up calls and the two matching stages.
Traced, every hook in ``layers.HOOKS`` records spans and counters, the
spans are written to OUT_DIR/spans.csv when the run ends, and the GTFS load
and planner build are replayed for their peak memory.
"""
from __future__ import annotations

import argparse
import csv
import json
import resource
import statistics
import sys
import time
from datetime import datetime
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
from tripmatch import pipeline  # noqa: E402
from tripmatch.config import load_config  # noqa: E402


_PROBE_ROWS = [f"2016-08-26 {i // 3600 % 24:02d}:{i // 60 % 60:02d}:{i % 60:02d},"
               f"{60.15 + i * 1e-6!r},{24.9 + i * 1e-6!r},BUS,{i % 97},v{i % 131}"
               for i in range(8000)]


def probe_host() -> float:
    """Seconds this host takes for a fixed slice of ingest-like work (CSV
    split, timestamp and float parsing), median of five; it does not depend
    on the program under test."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        for row in csv.reader(_PROBE_ROWS):
            datetime.strptime(row[0], "%Y-%m-%d %H:%M:%S")
            float(row[1]) + float(row[2])
            int(row[4])
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("dataset", type=Path)
    parser.add_argument("out", type=Path)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    cfg = load_config(args.dataset / "config.yaml")
    cfg.output_dir = args.out
    result: dict = {}
    hooks = layers.HOOKS if args.trace else layers.STAGE_HOOKS
    tracer = layers.Tracer()
    layers.install(tracer, hooks)
    before = probe_host()
    start = time.perf_counter()
    pipeline.run_all(cfg)
    result["run_s"] = time.perf_counter() - start
    result["probe_s"] = (before + probe_host()) / 2
    layers.check_fired(tracer, hooks)
    result["setup_s"] = tracer.total("pipeline.setup")
    result["match_s"] = tracer.total("pipeline.match")
    if args.trace:
        tracer.write_spans(args.out / "spans.csv")
        layers.measure_peaks(tracer)
        result["layers"] = layers.layer_metrics(tracer)
        result["shares"] = layers.layer_shares(tracer, result["run_s"])
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
