"""Command-line entry point.

Subcommands: ingest, segment, match-live, match-static, evaluate, run,
inspect-segment. Exit codes: 0 success, 1 input/config error, 2 evaluation
gates not met.
"""
from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace
from datetime import timedelta
from pathlib import Path

from . import pipeline, segmentation
from .config import (
    ALL_METHODS,
    ConfigError,
    RunConfig,
    STATIC,
    load_config,
)
from .ingest import IngestError
from .live import score_vehicle, select_user_samples
from .planner import PlanError
from .static import adjusted_query, filter_plan

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_GATE_FAILURE = 2

_INPUT_ERRORS = (ConfigError, IngestError, PlanError, OSError, ValueError)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tripmatch",
        description="Recognise public-transport rides from device traces, "
                    "live fleet positions and GTFS timetables.")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *, methods: bool = False) -> None:
        p.add_argument("--config", required=True, help="YAML run configuration")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--permissive", action="store_true",
                       help="downgrade row-level input errors to warnings")
        if methods:
            p.add_argument("--methods",
                           help=f"comma list from {','.join(ALL_METHODS)}")

    common(sub.add_parser("ingest", help="load and validate all inputs"))
    common(sub.add_parser("segment", help="build activity segments"))
    common(sub.add_parser("match-live", help="run live-position matching"),
           methods=True)
    common(sub.add_parser("match-static", help="run timetable matching"))
    common(sub.add_parser("evaluate",
                          help="join stage outputs to the manual log"),
           methods=True)
    common(sub.add_parser("run", help="full pipeline"), methods=True)
    inspect = sub.add_parser("inspect-segment",
                             help="diagnostic dump for one segment")
    common(inspect)
    inspect.add_argument("segment_id", type=int)
    return parser


def _configure(args: argparse.Namespace) -> RunConfig:
    cfg = load_config(args.config)
    if getattr(args, "out", None):
        cfg.output_dir = Path(args.out)
    if getattr(args, "permissive", False):
        cfg.permissive = True
    if getattr(args, "methods", None) is not None:
        cfg.methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    cfg.validate()
    return cfg


def cmd_ingest(cfg: RunConfig) -> int:
    summary = pipeline.run_ingest(cfg)
    for line in summary.lines():
        print(line)
    return EXIT_OK


def cmd_segment(cfg: RunConfig) -> int:
    segments = pipeline.stage_segment(cfg)
    candidates = segmentation.vehicular_candidates(segments)
    print(f"{len(segments)} segments, {len(candidates)} vehicular candidates")
    print(f"wrote {Path(cfg.output_dir) / pipeline.SEGMENTS_FILE}")
    return EXIT_OK


def cmd_match_live(cfg: RunConfig) -> int:
    methods = pipeline.live_methods(cfg)
    if not methods:
        print("no live methods selected", file=sys.stderr)
        return EXIT_INPUT_ERROR
    matched = pipeline.stage_match_live(cfg, pipeline.build_segments(cfg),
                                        methods)
    for method, results in matched.items():
        print(f"{method}: {len(results)} segment(s) matched -> "
              f"{Path(cfg.output_dir) / pipeline.MATCH_FILES[method]}")
    return EXIT_OK


def cmd_match_static(cfg: RunConfig) -> int:
    results = pipeline.stage_match_static(cfg, pipeline.build_segments(cfg))
    print(f"static: {len(results)} segment(s) matched -> "
          f"{Path(cfg.output_dir) / pipeline.MATCH_FILES[STATIC]}")
    return EXIT_OK


def cmd_evaluate(cfg: RunConfig) -> int:
    """Evaluate from stage outputs already present in the output directory."""
    evaluated = pipeline.stage_evaluate_saved(cfg)
    print(evaluated.report_text)
    return _gate_exit(evaluated)


def cmd_run(cfg: RunConfig) -> int:
    outputs = pipeline.run_all(cfg)
    print(outputs.evaluation.report_text)
    print(f"outputs written to {outputs.out_dir}")
    return _gate_exit(outputs.evaluation)


def _gate_exit(evaluated: pipeline.EvaluationOutput) -> int:
    for failure in evaluated.gate_failures:
        print(f"GATE FAILED: {failure}", file=sys.stderr)
    return EXIT_GATE_FAILURE if evaluated.gate_failures else EXIT_OK


def cmd_inspect_segment(cfg: RunConfig, segment_id: int) -> int:
    segments = pipeline.build_segments(cfg)
    by_id = {s.segment_id: s for s in segments}
    if segment_id not in by_id:
        print(f"unknown segment id {segment_id}; valid ids are "
              f"1..{len(segments)}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    segment = by_id[segment_id]
    print(f"segment {segment.segment_id}: device {segment.device_id} "
          f"{segment.activity.value} {segment.start_time} .. {segment.end_time} "
          f"({len(segment.trace)} points)")
    if not segmentation.vehicular_candidates([segment]):
        print("not a vehicular candidate; nothing to match")
        return EXIT_OK

    samples = select_user_samples(segment.trace, cfg.live.max_user_samples)
    print(f"{len(samples)} user samples for matching")

    index = pipeline.build_position_index(cfg)
    probe_cfg = replace(cfg.live, quorum_fraction=0.01)
    t0 = segment.start_time - timedelta(seconds=cfg.live.window_s)
    t1 = segment.end_time + timedelta(seconds=cfg.live.window_s)
    scored = []
    for ref in index.vehicles_in_range(t0, t1):
        s = score_vehicle(samples, ref, probe_cfg, index)
        if s is not None:
            scored.append(s)
    scored.sort(key=lambda s: (-s.score, s.vehicle_ref))
    print(f"\ncandidate vehicles within the time range: {len(scored)} scored")
    for s in scored[:10]:
        eligible = "eligible" if s.matched_fraction >= cfg.live.quorum_fraction \
            else "below quorum"
        names = ", ".join(sorted({n for n, _, _ in s.votes})) or "-"
        print(f"  {s.vehicle_ref}: score {s.score:.0f}, matched "
              f"{s.matched_fraction:.0%} ({eligible}), lines [{names}]")
        dist_text = ", ".join("-" if d is None else f"{d:.0f}"
                              for d in s.sample_distances)
        print(f"    per-sample distances (m): {dist_text}")

    if cfg.gtfs is not None and cfg.gtfs.exists() and STATIC in cfg.methods:
        planner = pipeline.build_planner(cfg)
        result = planner.plan(adjusted_query(segment, cfg.constants))
        print(f"\nplanner itineraries: {len(result.itineraries)}"
              + (f" (reason: {result.reason})" if result.reason else ""))
        for itinerary in result.itineraries:
            a = filter_plan(itinerary, segment, cfg.constants)
            leg = itinerary.transit
            print(f"  {leg.line_type.value} {leg.line_name} trip {leg.trip_id} "
                  f"board {leg.board_time.time()} alight {leg.alight_time.time()}"
                  f" -> {a.verdict.value}")
            print(f"    dt_total {a.delta_total_s:+.0f}s, dt_transit "
                  f"{a.delta_transit_s:.0f}s, start_diff {a.start_diff_s:.0f}s, "
                  f"route match "
                  + ("n/a" if a.route_match_fraction is None
                     else f"{a.route_match_fraction:.0%} "
                          f"(longest gap {a.max_adjacent_run_outside})"))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        cfg = _configure(args)
        if args.command == "ingest":
            return cmd_ingest(cfg)
        if args.command == "segment":
            return cmd_segment(cfg)
        if args.command == "match-live":
            return cmd_match_live(cfg)
        if args.command == "match-static":
            return cmd_match_static(cfg)
        if args.command == "evaluate":
            return cmd_evaluate(cfg)
        if args.command == "run":
            return cmd_run(cfg)
        if args.command == "inspect-segment":
            return cmd_inspect_segment(cfg, args.segment_id)
        raise AssertionError(f"unhandled command {args.command}")
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
