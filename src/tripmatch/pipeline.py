"""Stage orchestration: each stage loads what it needs, writes an
intermediate CSV the next stage can load back, and is deterministic given the
config. ``run_all`` and the stage subcommands share the ``stage_*``
functions; the ``run_*_stage`` matchers beneath them only compute, one
segment at a time in segment-id order."""
from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from . import evaluation, ingest, segmentation
from .config import RunConfig, STATIC
from .evaluation import MethodStats, Recognition, TripVerdict
from .gtfs import load_gtfs
from .ingest import format_timestamp
from .live import (
    LiveMatchResult,
    NEW_LIVE,
    OLD_LIVE,
    PositionIndex,
    match_live,
    match_live_old,
)
from .planner import JourneyPlanner, TimetablePlanner
from .static import StaticMatchResult, match_static, write_assessments_csv
from .types import ActivitySegment, LineType, ManualTrip, TraceColumns

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
                   index: PositionIndex, method: str,
                   ) -> dict[int, LiveMatchResult]:
    matcher = match_live if method == NEW_LIVE else match_live_old
    results = {}
    for s in segmentation.vehicular_candidates(segments):
        result = matcher(s, cfg.live, index)
        if result is not None:
            results[s.segment_id] = result
    return results


def run_static_stage(cfg: RunConfig, segments: Sequence[ActivitySegment],
                     planner: JourneyPlanner,
                     ) -> tuple[dict[int, StaticMatchResult], list]:
    results = {}
    assessments: list = []
    for s in segmentation.vehicular_candidates(segments):
        try:
            result = match_static(s, planner, cfg.constants,
                                  assessments_sink=assessments)
        except Exception as exc:
            raise RuntimeError(f"static matching failed for segment "
                               f"{s.segment_id}") from exc
        if result is not None:
            results[s.segment_id] = result
    return results, assessments


def write_match_csv(results: dict[int, object],
                    segments: Sequence[ActivitySegment], path) -> None:
    by_id = {s.segment_id: s for s in segments}
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(MATCH_CSV_COLUMNS)
        for segment_id, r in results.items():
            s = by_id[segment_id]
            reference = getattr(r, "vehicle_ref", None) or getattr(r, "trip_id", "")
            score = getattr(r, "score", "")
            fraction = getattr(r, "matched_fraction", "")
            writer.writerow([
                segment_id, s.device_id, format_timestamp(s.start_time),
                format_timestamp(s.end_time), s.activity.value,
                r.line_type.value, r.line_name, reference,
                f"{score:.1f}" if score != "" else "",
                f"{fraction:.3f}" if fraction != "" else "",
            ])


def load_match_csv(path) -> dict[int, Recognition]:
    table = ingest.load_table(path, [
        ingest.Column("segment_id", int), ingest.Column("recd_type", LineType),
        ingest.Column("recd_name", required=False)])
    out = dict(table.build(lambda segment_id, line_type, line_name:
                           (segment_id, Recognition(line_type, line_name))))
    return dict(sorted(out.items()))


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
        report_text=evaluation.render_report(stats, verdicts, "text"),
        report_csv=evaluation.render_report(stats, verdicts, "csv"),
    )
    for gate in cfg.gates:
        value = _gate_value(stats, gate.method, gate.metric)
        if value is None:
            output.gate_failures.append(
                f"gate {gate.method}/{gate.metric}: unknown metric")
        elif not gate.check(value):
            output.gate_failures.append(
                f"gate {gate.method}/{gate.metric}: value {value} outside "
                f"[{gate.min}, {gate.max}]")
    return output


def _gate_value(stats: dict[str, MethodStats], method: str,
                metric: str) -> Optional[float]:
    ms = stats.get(method)
    if ms is None:
        return None
    metric = metric.lower()
    simple = {
        "public_transport": ms.public_transport,
        "public_transport_line_type": ms.public_transport_line_type,
        "car_recognized": ms.car_recognized,
    }
    if metric in simple:
        return simple[metric]
    name_level = metric.endswith("_name")
    type_name = metric[:-5] if name_level else metric
    for lt, ts in ms.per_type.items():
        if lt.value.lower() == type_name:
            if name_level:
                return ts.name_correct if ts.name_correct is not None else None
            return ts.recognized
    return None


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
    index = build_position_index(cfg)
    out_dir = _out_dir(cfg)
    matched = {}
    for method in methods:
        matched[method] = run_live_stage(cfg, segments, index, method)
        write_match_csv(matched[method], segments, out_dir / MATCH_FILES[method])
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
    recognitions = {m: load_match_csv(p) for m, p in zip(cfg.methods, paths[1:])}
    return stage_evaluate(cfg, load_trips(cfg), segments, recognitions)


@dataclass
class RunOutputs:
    out_dir: Path
    segments: list[ActivitySegment]
    evaluation: EvaluationOutput


def run_all(cfg: RunConfig) -> RunOutputs:
    """Full pipeline: segment, match with the configured methods, evaluate,
    and write every intermediate plus the final report."""
    segments = stage_segment(cfg)
    trips = load_trips(cfg)
    methods = live_methods(cfg)
    matched: dict[str, dict] = (stage_match_live(cfg, segments, methods)
                                if methods else {})
    if STATIC in cfg.methods:
        matched[STATIC] = stage_match_static(cfg, segments)
    # report columns follow cfg.methods, as they do in stage_evaluate_saved
    recognitions = {m: to_recognitions(matched[m]) for m in cfg.methods}
    evaluated = stage_evaluate(cfg, trips, segments, recognitions)
    return RunOutputs(out_dir=Path(cfg.output_dir), segments=segments,
                      evaluation=evaluated)
