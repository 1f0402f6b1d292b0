"""End-to-end pipeline checks against the synthetic dataset's truth manifest:
every planted ride must be found by the methods that can see it, the car must
never be recognised, and stage outputs must reload cleanly."""
import json
from pathlib import Path

import pytest
import yaml

from tripmatch import pipeline, segmentation
from tripmatch.config import config_from_dict, load_config
from tripmatch.geodesy import distance_m
from tripmatch.evaluation import COMBINED
from tripmatch.ingest import parse_timestamp
from tripmatch.live import NEW_LIVE, OLD_LIVE
from tripmatch.static import adjusted_query, match_static
from tripmatch.types import LineType

from conftest import segment_rows


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
        recs = pipeline.load_match_csv(path)
        verdict_recs = {}
        for v in outputs.evaluation.verdicts:
            for seg_id, per_method in v.segment_recognitions.items():
                if method in per_method:
                    verdict_recs[seg_id] = per_method[method]
        for seg_id, rec in verdict_recs.items():
            assert recs[seg_id] == rec


def test_assessment_log_written_with_verdict_rows(run):
    _, outputs, _ = run
    text = (outputs.out_dir / pipeline.ASSESSMENTS_FILE).read_text()
    lines = text.strip().splitlines()
    assert lines[0].startswith("segment_id,trip_id")
    assert len(lines) > 1
    assert any("ACCEPT" in line for line in lines[1:])


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
        sink: list = []
        result = match_static(s, planner, cfg.constants, assessments_sink=sink)
        if result is not None:
            expected_results[s.segment_id] = result
        expected_assessments += sink
    assert results == expected_results
    assert list(results) == sorted(results)
    assert assessments == expected_assessments
    assert len({segment_id for segment_id, _ in assessments}) > 1


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
