"""Stage orchestration: each stage loads what it needs, writes an
intermediate CSV the next stage can load back, and is deterministic given the
config. ``run_all`` and the stage subcommands share the ``stage_*``
functions; the ``run_*_stage`` matchers beneath them only compute, one
segment at a time in segment-id order. The live stage decides after one
box prune of all its segments, whose in-range query and whole-window box
pass per segment serve both live methods, and one scoring pass per
method."""
from __future__ import annotations

import logging
import os
import shutil
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

from . import evaluation, ingest, segmentation
from .config import RunConfig, STATIC
from .evaluation import GATE_METRICS, MethodStats, Recognition, TripVerdict
from .gtfs import load_gtfs
from .ingest import Column, Stamps, format_timestamp
from .live import (
    LiveMatchResult,
    NEW_LIVE,
    OLD_LIVE,
    PositionIndex,
    match_live,
    match_live_old,
    prune_live,
    score_survivors,
)
from .planner import JourneyPlanner, TimetablePlanner
from .static import (StaticMatchResult, match_static, plan_static,
                     write_assessments_csv)
from .types import (Activity, ActivitySegment, LineType, ManualTrip,
                    TraceColumns)

log = logging.getLogger(__name__)

SEGMENTS_FILE = "segments.csv"
MATCH_FILES = {NEW_LIVE: "matches_new_live.csv",
               OLD_LIVE: "matches_old_live.csv",
               STATIC: "matches_static.csv"}
ASSESSMENTS_FILE = "static_assessments.csv"
REPORT_TEXT_FILE = "report.txt"
REPORT_CSV_FILE = "report_stats.csv"
INVENTORY_FILE = "trip_inventory.csv"

MATCH_CSV_COLUMNS = ["segment_id", "device_id", "segm_start", "segm_end",
                     "activity", "recd_type", "recd_name", "reference",
                     "score", "matched_fraction"]


@dataclass
class IngestSummary:
    counts: dict[str, int] = field(default_factory=dict)
    diagnostics: list[str] = field(default_factory=list)

    def lines(self) -> list[str]:
        out = [f"{name}: {count} rows" for name, count in self.counts.items()]
        out += [f"note: {d}" for d in self.diagnostics]
        return out


def run_ingest(cfg: RunConfig) -> IngestSummary:
    """Load and validate every configured input, reporting row counts."""
    summary = IngestSummary()
    diag = summary.diagnostics
    kw = dict(permissive=cfg.permissive, diagnostics=diag, default_date=cfg.date)

    summary.counts["device_data"] = len(ingest.load_device_data(
        cfg.require_path("device_data"), **kw))
    summary.counts["filtered_data"] = len(ingest.load_filtered_data(
        cfg.require_path("filtered_data"), **kw))
    summary.counts["transit_live"] = len(ingest.load_transit_live(
        cfg.require_path("transit_live"), **kw))
    trips = ingest.load_manual_log(cfg.require_path("manual_log"), **kw)
    summary.counts["manual_log"] = len(trips)
    summary.counts["manual_log_public_transport"] = sum(
        1 for t in trips if t.line_type is not LineType.CAR)
    if cfg.path("device_models") and cfg.path("device_models").exists():
        summary.counts["device_models"] = len(ingest.load_device_models(
            cfg.require_path("device_models"), permissive=cfg.permissive,
            diagnostics=diag))
    if cfg.path("trains_json") and cfg.path("trains_json").exists():
        summary.counts["train_records"] = ingest.load_train_stops(
            cfg.require_path("trains_json")).train_count
    if cfg.gtfs is not None and cfg.gtfs.exists():
        summary.counts.update(
            {f"gtfs_{k}": v for k, v in load_gtfs(cfg.gtfs).counts().items()})
    return summary


def load_filtered(cfg: RunConfig) -> TraceColumns:
    return ingest.load_filtered_data(cfg.require_path("filtered_data"),
                                     permissive=cfg.permissive,
                                     default_date=cfg.date)


def load_trips(cfg: RunConfig) -> list[ManualTrip]:
    return ingest.load_manual_log(cfg.require_path("manual_log"),
                                  permissive=cfg.permissive,
                                  default_date=cfg.date)


def build_segments(cfg: RunConfig) -> list[ActivitySegment]:
    return segmentation.build_segments(load_filtered(cfg), max_gap_s=cfg.max_gap_s)


def build_position_index(cfg: RunConfig) -> PositionIndex:
    positions = ingest.load_transit_live(cfg.require_path("transit_live"),
                                         permissive=cfg.permissive,
                                         default_date=cfg.date)
    return PositionIndex(positions)


def build_planner(cfg: RunConfig) -> JourneyPlanner:
    return TimetablePlanner(load_gtfs(cfg.require_gtfs()), cfg.date,
                            cfg.constants.walk_speed_mps,
                            search_window_s=cfg.planner_search_window_s)


def run_live_stage(cfg: RunConfig, segments: Sequence[ActivitySegment],
                   index: PositionIndex, methods: Sequence[str],
                   ) -> dict[str, dict[int, LiveMatchResult]]:
    """Match every vehicular candidate with each live method of methods:
    one box prune of them all, whose in-range query and whole-window box
    pass serve every method, then per method one scoring pass over its
    survivors, and each segment's best score is picked."""
    matchers = {NEW_LIVE: match_live, OLD_LIVE: match_live_old}
    segments = segmentation.vehicular_candidates(segments)
    pruned = prune_live(segments, cfg.live, index, methods)
    matched = {}
    for method in methods:
        results = matched[method] = {}
        # each method's candidates are let go once scored
        for s, candidates in zip(segments, score_survivors(
                pruned.pop(method), cfg.live, index, method)):
            result = matchers[method](s, cfg.live, index, candidates)
            if result is not None:
                results[s.segment_id] = result
    return matched


def run_static_stage(cfg: RunConfig, segments: Sequence[ActivitySegment],
                     planner: JourneyPlanner,
                     ) -> tuple[dict[int, StaticMatchResult], list]:
    """Match every vehicular candidate with the static method: one planner
    search and one route pass of them all, then each segment's plans are
    assessed."""
    segments = segmentation.vehicular_candidates(segments)
    try:
        found = plan_static(segments, planner, cfg.constants)
    except Exception:
        # the segment that fails alone is named; else the stage's error stands
        for s in segments:
            try:
                plan_static([s], planner, cfg.constants)
            except Exception as exc:
                raise RuntimeError(f"static matching failed for segment "
                                   f"{s.segment_id}") from exc
        raise
    results = {}
    assessments: list = []
    for s, candidates in zip(segments, found):
        try:
            decision = match_static(s, planner, cfg.constants, candidates)
        except Exception as exc:
            raise RuntimeError(f"static matching failed for segment "
                               f"{s.segment_id}") from exc
        assessments += [(s.segment_id, a) for a in decision.assessments]
        if decision.result is not None:
            results[s.segment_id] = decision.result
    return results, assessments


def write_match_csv(results: dict[int, object],
                    segments: Sequence[ActivitySegment], path) -> None:
    by_id = {s.segment_id: s for s in segments}

    def row(segment_id: int, r) -> list:
        s = by_id[segment_id]
        reference = getattr(r, "vehicle_ref", None) or getattr(r, "trip_id", "")
        score = getattr(r, "score", "")
        fraction = getattr(r, "matched_fraction", "")
        return [segment_id, s.device_id, format_timestamp(s.start_time),
                format_timestamp(s.end_time), s.activity.value,
                r.line_type.value, r.line_name, reference,
                f"{score:.1f}" if score != "" else "",
                f"{fraction:.3f}" if fraction != "" else ""]

    ingest.write_csv(path, MATCH_CSV_COLUMNS,
                     (row(*item) for item in results.items()))


def load_match_csv(path, segments: Sequence[ActivitySegment],
                   ) -> dict[int, Recognition]:
    """The recognitions of a match table that write_match_csv wrote for
    segments, by segment id. A row must name a segment of segments by its
    id, device, first and last time and activity, or it is refused."""
    by_id = {s.segment_id: s for s in segments}
    table = ingest.load_table(path, [
        Column("segment_id", int), Column("device_id", int),
        Column("activity", Activity), Column("segm_start", Stamps()),
        Column("segm_end", Stamps()), Column("recd_type", LineType),
        Column("recd_name", required=False)])

    def recognition(segment_id, device_id, activity, start, end, line_type,
                    line_name):
        s = by_id.get(segment_id)
        if s is None:
            raise ValueError(f"segment {segment_id} is not in {SEGMENTS_FILE}")
        if (device_id, activity, start, end) != (s.device_id, s.activity,
                                                 s.start_time, s.end_time):
            raise ValueError(f"segment {segment_id} is not the segment of "
                             f"that id in {SEGMENTS_FILE}")
        return segment_id, Recognition(line_type, line_name)

    return dict(table.build(recognition))


def to_recognitions(results: dict[int, object]) -> dict[int, Recognition]:
    return {segment_id: Recognition(r.line_type, r.line_name)
            for segment_id, r in results.items()}


@dataclass
class EvaluationOutput:
    verdicts: list[TripVerdict]
    stats: dict[str, MethodStats]
    report_text: str
    report_csv: str
    gate_failures: list[str] = field(default_factory=list)


def run_evaluation(cfg: RunConfig, trips: Sequence[ManualTrip],
                   segments: Sequence[ActivitySegment],
                   recognitions: dict[str, dict[int, Recognition]],
                   ) -> EvaluationOutput:
    verdicts = evaluation.join_trips(trips, segments, recognitions)
    stats = evaluation.compute_stats(verdicts, list(recognitions))
    output = EvaluationOutput(
        verdicts=verdicts,
        stats=stats,
        report_text=evaluation.render_report_text(stats, verdicts),
        report_csv=evaluation.render_report_csv(stats),
    )
    for gate in cfg.gates:
        value = GATE_METRICS[gate.metric.lower()](stats[gate.method])
        if not gate.check(value):
            output.gate_failures.append(
                f"gate {gate.method}/{gate.metric}: value {value} outside "
                f"[{gate.min}, {gate.max}]")
    return output


def _out_dir(cfg: RunConfig) -> Path:
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def live_methods(cfg: RunConfig) -> list[str]:
    return [m for m in cfg.methods if m in (NEW_LIVE, OLD_LIVE)]


def stage_segment(cfg: RunConfig) -> list[ActivitySegment]:
    """Segment the filtered table and write segments.csv."""
    segments = build_segments(cfg)
    segmentation.write_segments_csv(segments, _out_dir(cfg) / SEGMENTS_FILE)
    log.info("%d segments (%d vehicular candidates)", len(segments),
             len(segmentation.vehicular_candidates(segments)))
    return segments


def stage_match_live(cfg: RunConfig, segments: Sequence[ActivitySegment],
                     methods: Sequence[str],
                     ) -> dict[str, dict[int, LiveMatchResult]]:
    """Match segments against the fleet feed with each live method and
    write its match table."""
    matched = run_live_stage(cfg, segments, build_position_index(cfg), methods)
    out_dir = _out_dir(cfg)
    for method, results in matched.items():
        write_match_csv(results, segments, out_dir / MATCH_FILES[method])
    return matched


def stage_match_static(cfg: RunConfig, segments: Sequence[ActivitySegment],
                       ) -> dict[int, StaticMatchResult]:
    """Match segments against the timetable and write the match table and
    the plan assessments."""
    planner = build_planner(cfg)
    results, assessments = run_static_stage(cfg, segments, planner)
    out_dir = _out_dir(cfg)
    write_match_csv(results, segments, out_dir / MATCH_FILES[STATIC])
    write_assessments_csv(assessments, out_dir / ASSESSMENTS_FILE)
    return results


def stage_evaluate(cfg: RunConfig, trips: Sequence[ManualTrip],
                   segments: Sequence[ActivitySegment],
                   recognitions: dict[str, dict[int, Recognition]],
                   ) -> EvaluationOutput:
    """Evaluate recognitions against the manual log and write the reports
    and the trip inventory."""
    evaluated = run_evaluation(cfg, trips, segments, recognitions)
    out_dir = _out_dir(cfg)
    (out_dir / REPORT_TEXT_FILE).write_text(evaluated.report_text,
                                            encoding="utf-8")
    (out_dir / REPORT_CSV_FILE).write_text(evaluated.report_csv,
                                           encoding="utf-8")
    evaluation.write_inventory_csv(evaluated.verdicts, list(recognitions),
                                   out_dir / INVENTORY_FILE)
    return evaluated


def stage_evaluate_saved(cfg: RunConfig) -> EvaluationOutput:
    """stage_evaluate over the segments.csv and match tables of cfg.methods
    that earlier stages left in the output directory."""
    out_dir = Path(cfg.output_dir)
    paths = [out_dir / SEGMENTS_FILE] + [out_dir / MATCH_FILES[m]
                                         for m in cfg.methods]
    for path in paths:
        if not path.exists():
            raise FileNotFoundError(
                f"missing stage output {path}; run the segment and matching "
                "stages or 'tripmatch run' first")
    segments = segmentation.load_segments_csv(paths[0], load_filtered(cfg))
    recognitions = {m: load_match_csv(p, segments)
                    for m, p in zip(cfg.methods, paths[1:])}
    return stage_evaluate(cfg, load_trips(cfg), segments, recognitions)


@dataclass
class RunOutputs:
    out_dir: Path
    segments: list[ActivitySegment]
    evaluation: EvaluationOutput


def run_all(cfg: RunConfig) -> RunOutputs:
    """Full pipeline: segment, match with the configured methods, evaluate,
    and write every intermediate plus the final report. Every input that the
    configured methods read is found before anything is written; each is
    loaded only when its stage runs, so the index and the planner are never
    alive together. The stages write into a staging directory inside the
    output directory, whose files replace those of the output directory
    only after the last stage: a run that fails, on an input that does not
    parse for one, leaves the output directory as it found it, and removes
    it if the run made it."""
    methods = live_methods(cfg)
    inputs = ["filtered_data", "manual_log"] + (["transit_live"] if methods else [])
    for name in inputs:
        cfg.require_path(name)
    if STATIC in cfg.methods:
        cfg.require_gtfs()
    # the outermost directory that the run makes, if any
    out = Path(cfg.output_dir)
    made = next((p for p in reversed([out, *out.parents]) if not p.exists()), None)
    out_dir = _out_dir(cfg)
    staging = Path(tempfile.mkdtemp(prefix=".staging-", dir=out_dir))
    done = False
    try:
        staged = replace(cfg, output_dir=staging)
        segments = stage_segment(staged)
        trips = load_trips(staged)
        matched: dict[str, dict] = (stage_match_live(staged, segments, methods)
                                    if methods else {})
        if STATIC in cfg.methods:
            matched[STATIC] = stage_match_static(staged, segments)
        # report columns follow cfg.methods, as they do in stage_evaluate_saved
        recognitions = {m: to_recognitions(matched[m]) for m in cfg.methods}
        evaluated = stage_evaluate(staged, trips, segments, recognitions)
        for path in sorted(staging.iterdir()):
            os.replace(path, out_dir / path.name)
        done = True
    finally:
        shutil.rmtree(staging if done or made is None else made, ignore_errors=True)
    return RunOutputs(out_dir=out_dir, segments=segments, evaluation=evaluated)
