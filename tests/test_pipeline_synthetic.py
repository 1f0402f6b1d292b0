"""End-to-end pipeline checks against the synthetic dataset's truth manifest:
every planted ride must be found by the methods that can see it, the car must
never be recognised, and stage outputs must reload cleanly."""
import csv
import dataclasses
import json
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest
import yaml

from tripmatch import pipeline, segmentation
from tripmatch.config import STATIC, ConfigError, config_from_dict, load_config
from tripmatch.geodesy import distance_m
from tripmatch.evaluation import COMBINED, Recognition
from tripmatch.ingest import parse_timestamp
from tripmatch.live import NEW_LIVE, OLD_LIVE, LiveMatchResult, decide_live
from tripmatch.static import adjusted_query, match_static, write_assessments_csv
from tripmatch.types import Activity, LineType

from conftest import fp, segment_of, segment_rows


@pytest.fixture(scope="module")
def run(synth, tmp_path_factory):
    cfg = load_config(synth.config_path)
    cfg.output_dir = tmp_path_factory.mktemp("run-out")
    outputs = pipeline.run_all(cfg)
    truth = json.loads(synth.truth_path.read_text())
    return cfg, outputs, truth


def test_vehicular_segment_count_matches_truth(run):
    _, outputs, truth = run
    candidates = segmentation.vehicular_candidates(outputs.segments)
    assert len(candidates) == truth["vehicular_segments_expected"]


def test_every_planted_ride_has_a_matching_segment(run):
    _, outputs, truth = run
    candidates = segmentation.vehicular_candidates(outputs.segments)
    for planted in truth["planted_trips"]:
        dep = parse_timestamp(planted["dep"])
        arr = parse_timestamp(planted["arr"])
        hits = [s for s in candidates
                if s.device_id == planted["device_id"]
                and s.start_time <= arr and s.end_time >= dep]
        assert hits, f"no segment covers planted ride {planted['trip_id']}"


def test_live_methods_recognise_planted_rides(run):
    cfg, outputs, truth = run
    stats = outputs.evaluation.stats
    live_expected = [p for p in truth["planted_trips"] if p["live_expected"]]
    assert stats[NEW_LIVE].public_transport == len(live_expected)
    # the train ride is invisible to live matching
    assert stats[NEW_LIVE].per_type[LineType.TRAIN].recognized == 0
    # old live cannot hold the fast subway within 100 m point distance
    assert stats[OLD_LIVE].per_type[LineType.SUBWAY].recognized == 0
    assert (stats[OLD_LIVE].per_type[LineType.SUBWAY].recognized
            < stats[NEW_LIVE].per_type[LineType.SUBWAY].recognized)
    assert stats[NEW_LIVE].per_type[LineType.SUBWAY].recognized == 3


def test_static_method_recognises_all_planted_rides(run):
    _, outputs, truth = run
    stats = outputs.evaluation.stats
    assert stats["static"].public_transport == truth["pt_trips"]
    assert stats["static"].public_transport_line_type == truth["pt_trips"]
    assert stats["static"].per_type[LineType.TRAIN].recognized == 1


def test_combined_counts_and_monotonicity(run):
    _, outputs, truth = run
    stats = outputs.evaluation.stats
    assert stats[COMBINED].public_transport == truth["pt_trips"]
    for method, ms in stats.items():
        for lt, ts in ms.per_type.items():
            assert ts.recognized <= ts.logged
            assert stats[COMBINED].per_type[lt].recognized >= ts.recognized


def test_car_negative_control(run):
    _, outputs, truth = run
    stats = outputs.evaluation.stats
    assert stats[COMBINED].car_logged == truth["car_trips"]
    for ms in stats.values():
        assert ms.car_recognized == 0


def test_correct_vehicles_and_names_identified(run):
    cfg, outputs, truth = run
    index = pipeline.build_position_index(cfg)
    from tripmatch.live import match_live

    candidates = segmentation.vehicular_candidates(outputs.segments)
    for planted in truth["planted_trips"]:
        if not planted["live_expected"]:
            continue
        dep = parse_timestamp(planted["dep"])
        seg = next(s for s in candidates
                   if s.device_id == planted["device_id"]
                   and abs((s.start_time - dep).total_seconds()) < 120)
        result = match_live(seg, cfg.live, index)
        assert result is not None
        assert result.vehicle_ref == planted["vehicle_ref"]
        assert result.line_name == planted["line_name"]
        assert result.line_type.value == planted["line_type"]


def test_intermediates_reload_to_same_recognitions(run):
    cfg, outputs, _ = run
    filtered = pipeline.load_filtered(cfg)
    reloaded_segments = segmentation.load_segments_csv(
        outputs.out_dir / pipeline.SEGMENTS_FILE, filtered)
    assert segment_rows(reloaded_segments) == segment_rows(outputs.segments)
    for method, filename in pipeline.MATCH_FILES.items():
        path = outputs.out_dir / filename
        assert path.exists()
        recs = pipeline.load_match_csv(path, reloaded_segments)
        verdict_recs = {}
        for v in outputs.evaluation.verdicts:
            for seg_id, per_method in v.segment_recognitions.items():
                if method in per_method:
                    verdict_recs[seg_id] = per_method[method]
        for seg_id, rec in verdict_recs.items():
            assert recs[seg_id] == rec


def test_a_match_table_keeps_quoted_cells(tmp_path):
    """A line name with a comma and a double quote, which csv.writer quotes,
    reads back unchanged."""
    segments = [segment_of([fp(0, Activity.WALKING), fp(60, Activity.WALKING)]),
                segment_of([fp(90, Activity.IN_VEHICLE), fp(400, Activity.IN_VEHICLE)],
                           segment_id=2)]
    name = 'Tram "7", night'
    results = {2: LiveMatchResult(2, NEW_LIVE, "v1", LineType.TRAM, name,
                                  12.5, 0.75)}
    path = tmp_path / "matches.csv"
    pipeline.write_match_csv(results, segments, path)
    assert f'"{name.replace(chr(34), 2 * chr(34))}"' in path.read_text()
    assert pipeline.load_match_csv(path, segments) == \
        {2: Recognition(LineType.TRAM, name)}


def test_assessment_log_written_with_verdict_rows(run):
    _, outputs, _ = run
    text = (outputs.out_dir / pipeline.ASSESSMENTS_FILE).read_text()
    lines = text.strip().splitlines()
    assert lines[0].startswith("segment_id,trip_id")
    assert len(lines) > 1
    assert any("ACCEPT" in line for line in lines[1:])


def _fields(value):
    """value's type and fields, each dataclass in it taken apart the same
    way and each array as nested lists, so that values holding a
    TransitLeg, which compares by identity, compare by content."""
    if dataclasses.is_dataclass(value):
        return (type(value), *(_fields(getattr(value, f.name))
                               for f in dataclasses.fields(value)))
    if isinstance(value, np.ndarray):
        return value.dtype, value.tolist()
    return value


def test_static_stage_collects_assessments_in_segment_order(run):
    cfg, outputs, _ = run
    planner = pipeline.build_planner(cfg)
    results, assessments = pipeline.run_static_stage(cfg, outputs.segments,
                                                     planner)
    candidates = segmentation.vehicular_candidates(outputs.segments)
    assert [s.segment_id for s in candidates] == \
        sorted(s.segment_id for s in candidates)
    expected_results, expected_assessments = {}, []
    for s in candidates:
        decision = match_static(s, planner, cfg.constants)
        if decision.result is not None:
            expected_results[s.segment_id] = decision.result
        expected_assessments += [(s.segment_id, a)
                                 for a in decision.assessments]
    assert {k: _fields(r) for k, r in results.items()} == \
        {k: _fields(r) for k, r in expected_results.items()}
    assert list(results) == sorted(results)
    assert [(k, _fields(a)) for k, a in assessments] == \
        [(k, _fields(a)) for k, a in expected_assessments]
    assert len({segment_id for segment_id, _ in assessments}) > 1


def _rows_by_segment(path) -> dict[str, list[list[str]]]:
    """The rows of a CSV output below its header, by their segment_id."""
    with open(path, newline="", encoding="utf-8") as fh:
        _, *rows = csv.reader(fh)
    by_segment = defaultdict(list)
    for row in rows:
        by_segment[row[0]].append(row)
    return dict(by_segment)


def test_decisions_agree_with_the_written_outputs(run, tmp_path):
    """For every vehicular candidate and configured method, the decision's
    result is the segment's row of the match table, or its absence, and
    static's assessments are the segment's rows of the assessment log."""
    cfg, outputs, _ = run
    index = pipeline.build_position_index(cfg)
    planner = pipeline.build_planner(cfg)
    candidates = segmentation.vehicular_candidates(outputs.segments)
    assessed = _rows_by_segment(outputs.out_dir / pipeline.ASSESSMENTS_FILE)
    assert len(assessed) > 1
    for method in cfg.methods:
        decided, own = {}, tmp_path / "assessed.csv"
        for s in candidates:
            if method == STATIC:
                decision = match_static(s, planner, cfg.constants)
                write_assessments_csv(
                    [(s.segment_id, a) for a in decision.assessments], own)
                assert _rows_by_segment(own).get(str(s.segment_id)) == \
                    assessed.get(str(s.segment_id))
            else:
                decision = decide_live(s, cfg.live, index, method)
            if decision.result is not None:
                decided[s.segment_id] = decision.result
        written = outputs.out_dir / pipeline.MATCH_FILES[method]
        pipeline.write_match_csv(decided, outputs.segments, tmp_path / "m.csv")
        assert (tmp_path / "m.csv").read_bytes() == written.read_bytes()
        assert 0 < len(decided) < len(candidates), method


def test_planner_walks_at_the_configured_walk_speed(synth):
    raw = yaml.safe_load(Path(synth.config_path).read_text())
    raw["static"] = {"walk_speed_mps": 1.25}
    cfg = config_from_dict(raw, base_dir=Path(synth.config_path).parent)
    planner = pipeline.build_planner(cfg)
    itineraries = []
    for seg in segmentation.vehicular_candidates(pipeline.build_segments(cfg)):
        query = adjusted_query(seg, cfg.constants)
        for it in planner.plan(query).itineraries:
            itineraries.append(it)
            d_board = distance_m(query.origin,
                                 planner.gtfs.stops[it.transit.board_stop].geo)
            d_alight = distance_m(query.destination,
                                  planner.gtfs.stops[it.transit.alight_stop].geo)
            assert it.walk_before_s == pytest.approx(d_board / 1.25, rel=1e-9)
            assert it.walk_after_s == pytest.approx(d_alight / 1.25, rel=1e-9)
    assert itineraries


@pytest.mark.parametrize("missing", ["gtfs", "transit_live", "manual_log",
                                     "filtered_data"])
def test_a_missing_input_stops_the_run_before_it_writes(synth, tmp_path, missing):
    """run_all finds every input that its methods read before it writes
    anything: with one missing it raises ConfigError, and a fresh output
    directory gets no file."""
    cfg = load_config(synth.config_path)
    cfg.output_dir = tmp_path / "out"
    if missing == "gtfs":
        cfg.gtfs = tmp_path / "gtfs"
    else:
        cfg.files[missing] = str(tmp_path / "missing.csv")
    with pytest.raises(ConfigError, match="not found"):
        pipeline.run_all(cfg)
    assert not cfg.output_dir.exists()
