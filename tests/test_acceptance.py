"""Acceptance gate.

Criteria 1-6 replay the published dataset and check the reported recognition
statistics at their stated tolerances; they skip (with a clear reason) when
the dataset is not mounted, since its tables are distributed separately.
Criteria 7-8 are self-contained property suites and always run.

Run with `pytest tests/test_acceptance.py -v`; a one-line verdict per
criterion is echoed in the terminal summary.
"""
import math
import random
import time

import pytest

import conftest
from conftest import (
    DAY,
    at,
    published_dataset_dir,
    requires_dataset,
)
from tripmatch import pipeline, segmentation
from tripmatch.client_filter import FilterConfig, FilterState, accept_point
from tripmatch.config import RunConfig, STATIC
from tripmatch.evaluation import (
    COMBINED,
    INV_RECOGNIZED,
    compute_stats,
    join_trips,
)
from tripmatch.geodesy import distance_m, offset_point
from tripmatch.live import NEW_LIVE, OLD_LIVE, LiveMatchConfig, score_vehicle
from tripmatch.planner import PlanQuery, TimetablePlanner
from tripmatch.static import MatchConstants, assess_plans
from tripmatch.types import Activity, GeoPoint, LineType

from test_live import _exact_match_setup, _riding_setup
from test_planner import WALK_MPS, _random_bundle, oracle_plan
from test_static import plan_for, straight_segment


def report(criterion: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"criterion {criterion} [{name}]: {status}"
    if detail:
        line += f" ({detail})"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def within(value, target, tolerance) -> bool:
    return abs(value - target) <= tolerance


# --- published-dataset fixtures (module-scoped, loaded once) ---

@pytest.fixture(scope="module")
def ds_cfg(tmp_path_factory) -> RunConfig:
    root = published_dataset_dir()
    if root is None:
        pytest.skip("published dataset not present")
    cfg = RunConfig(data_dir=root,
                    output_dir=tmp_path_factory.mktemp("acceptance-out"))
    for candidate in ("hsl_20160825T125101Z.zip", "gtfs.zip", "gtfs"):
        if (root / candidate).exists():
            cfg.gtfs = root / candidate
            break
    else:
        for z in sorted(root.glob("*.zip")):
            cfg.gtfs = z
            break
    return cfg


@pytest.fixture(scope="module")
def ds_tables(ds_cfg):
    filtered = pipeline.load_filtered(ds_cfg)
    trips = pipeline.load_trips(ds_cfg)
    return filtered, trips


@pytest.fixture(scope="module")
def ds_segments(ds_cfg, ds_tables):
    filtered, _ = ds_tables
    t0 = time.perf_counter()
    segments = segmentation.build_segments(filtered, ds_cfg.max_gap_s)
    return segments, time.perf_counter() - t0


@pytest.fixture(scope="module")
def ds_live(ds_cfg, ds_segments):
    segments, _ = ds_segments
    t0 = time.perf_counter()
    index = pipeline.build_position_index(ds_cfg)
    results = pipeline.run_live_stage(ds_cfg, segments, index,
                                      [NEW_LIVE, OLD_LIVE])
    return results, time.perf_counter() - t0


@pytest.fixture(scope="module")
def ds_static(ds_cfg, ds_segments):
    if ds_cfg.gtfs is None or not ds_cfg.gtfs.exists():
        pytest.skip("GTFS feed not present beside the dataset (fetch "
                    "hsl_20160825T125101Z.zip separately)")
    segments, _ = ds_segments
    t0 = time.perf_counter()
    planner = pipeline.build_planner(ds_cfg)
    results, _ = pipeline.run_static_stage(ds_cfg, segments, planner)
    return results, time.perf_counter() - t0


def _stats_for(ds_tables, ds_segments, recognition_sets):
    _, trips = ds_tables
    segments, _ = ds_segments
    recognitions = {m: pipeline.to_recognitions(r)
                    for m, r in recognition_sets.items()}
    verdicts = join_trips(trips, segments, recognitions)
    return verdicts, compute_stats(verdicts, list(recognitions))


# --- criterion 1: segmentation counts ---

@requires_dataset
def test_criterion_1_segment_count(ds_tables, ds_segments):
    segments, seg_runtime = ds_segments
    _, trips = ds_tables
    candidates = [s for s in segments if s.activity is Activity.IN_VEHICLE]
    by_device = {}
    for t in trips:
        by_device.setdefault(t.device_id, []).append(t)
    overlapping = sum(
        1 for s in candidates
        if any(segmentation.overlap(s, t)[0]
               for t in by_device.get(s.device_id, ())))
    ok = (within(len(candidates), 86, 3)
          and overlapping / len(candidates) >= 0.97
          and seg_runtime < 5.0)
    report(1, "segment count", ok,
           f"{len(candidates)} IN_VEHICLE segments, {overlapping} overlapping, "
           f"{seg_runtime:.2f}s")


# --- criterion 2: new live ---

NEW_LIVE_EXPECTED = {LineType.SUBWAY: 17, LineType.TRAM: 8, LineType.BUS: 4,
                     LineType.TRAIN: 0}


@requires_dataset
def test_criterion_2_new_live(ds_tables, ds_segments, ds_live):
    live_results, live_runtime = ds_live
    verdicts, stats = _stats_for(ds_tables, ds_segments,
                                 {NEW_LIVE: live_results[NEW_LIVE]})
    ms = stats[NEW_LIVE]
    cells_ok = all(within(ms.per_type[lt].recognized, expected, 3)
                   for lt, expected in NEW_LIVE_EXPECTED.items())
    pt_ok = within(ms.public_transport, 29, 3)
    identity = sum(1 for v in verdicts
                   if v.trip.line_type is not LineType.CAR
                   and v.inventory(NEW_LIVE) == INV_RECOGNIZED)
    grid = {lt.value: ms.per_type[lt].recognized for lt in NEW_LIVE_EXPECTED}
    ok = (cells_ok and pt_ok and within(identity, 28, 3)
          and live_runtime < 300.0)
    report(2, "new live", ok,
           f"{grid}, PT {ms.public_transport}, identity {identity}, "
           f"{live_runtime:.0f}s")


# --- criterion 3: old live baseline ---

@requires_dataset
def test_criterion_3_old_live(ds_tables, ds_segments, ds_live):
    live_results, _ = ds_live
    _, stats = _stats_for(ds_tables, ds_segments,
                          {NEW_LIVE: live_results[NEW_LIVE],
                           OLD_LIVE: live_results[OLD_LIVE]})
    old, new = stats[OLD_LIVE], stats[NEW_LIVE]
    ok = (within(old.per_type[LineType.SUBWAY].recognized, 9, 3)
          and within(old.public_transport, 20, 3)
          and old.per_type[LineType.SUBWAY].recognized
          < new.per_type[LineType.SUBWAY].recognized)
    report(3, "old live baseline", ok,
           f"subway {old.per_type[LineType.SUBWAY].recognized} vs new "
           f"{new.per_type[LineType.SUBWAY].recognized}, "
           f"PT {old.public_transport}")


# --- criterion 4: static ---

@requires_dataset
def test_criterion_4_static(ds_tables, ds_segments, ds_static):
    static_results, static_runtime = ds_static
    _, stats = _stats_for(ds_tables, ds_segments, {STATIC: static_results})
    ms = stats[STATIC]
    ok = (within(ms.public_transport, 40, 6)
          and within(ms.public_transport_line_type, 39, 6)
          and static_runtime < 600.0)
    report(4, "static timetable", ok,
           f"PT {ms.public_transport}, line type "
           f"{ms.public_transport_line_type}, {static_runtime:.0f}s")


# --- criterion 5: combined ---

@requires_dataset
def test_criterion_5_combined(ds_tables, ds_segments, ds_live, ds_static):
    live_results, _ = ds_live
    static_results, _ = ds_static
    _, stats = _stats_for(ds_tables, ds_segments,
                          {NEW_LIVE: live_results[NEW_LIVE],
                           OLD_LIVE: live_results[OLD_LIVE],
                           STATIC: static_results})
    combined = stats[COMBINED]
    monotone = all(
        combined.per_type[lt].recognized >= stats[m].per_type[lt].recognized
        for m in (NEW_LIVE, OLD_LIVE, STATIC) for lt in combined.per_type)
    trains_live = (stats[NEW_LIVE].per_type[LineType.TRAIN].recognized
                   + stats[OLD_LIVE].per_type[LineType.TRAIN].recognized)
    ok = (within(combined.public_transport, 48, 6) and monotone
          and trains_live == 0)
    report(5, "combined", ok,
           f"PT {combined.public_transport}, trains via live {trains_live}")


# --- criterion 6: negative control ---

@requires_dataset
def test_criterion_6_negative_control(ds_tables, ds_segments, ds_live,
                                      ds_static):
    live_results, _ = ds_live
    static_results, _ = ds_static
    _, trips = ds_tables
    car_trips = [t for t in trips if t.line_type is LineType.CAR]
    _, stats = _stats_for(ds_tables, ds_segments,
                          {NEW_LIVE: live_results[NEW_LIVE],
                           OLD_LIVE: live_results[OLD_LIVE],
                           STATIC: static_results})
    combined = stats[COMBINED]
    logged = {lt: combined.per_type[lt].logged for lt in combined.per_type}
    conservation = (combined.logged_total == 97
                    and logged[LineType.BUS] == 15
                    and logged[LineType.TRAM] == 15
                    and logged[LineType.TRAIN] == 9
                    and logged[LineType.SUBWAY] == 58)
    ok = (len(car_trips) == 6
          and all(t.device_id == 7 for t in car_trips)
          and combined.car_recognized == 0
          and conservation)
    report(6, "car negative control", ok,
           f"{len(car_trips)} car trips, {combined.car_recognized} recognised, "
           f"{combined.logged_total} PT trips logged")


# --- criterion 7: property suites (always run) ---

_C7_T0 = time.perf_counter()
_C7_SPENT: list[float] = []


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    _C7_SPENT.append(time.perf_counter() - t0)


def test_criterion_7a_static_threshold_closure():
    def run():
        segment = straight_segment(duration_s=600.0)
        constants = MatchConstants()
        cases = [
            (dict(total_s=600.0 - 179.0, transit_s=600.0 - 179.0), True),
            (dict(total_s=600.0 - 181.0, transit_s=600.0 - 181.0), False),
            (dict(total_s=600.0 + 1079.0), True),
            (dict(total_s=600.0 + 1081.0), False),
            (dict(transit_s=600.0 + 335.0, total_s=600.0 + 335.0), True),
            (dict(transit_s=600.0 + 337.0, total_s=600.0 + 337.0), False),
            (dict(board_offset_s=347.0), True),
            (dict(board_offset_s=349.0), False),
        ]
        for kwargs, accepted in cases:
            a = assess_plans([plan_for(segment, **kwargs)], segment, constants)[0]
            assert a.accepted is accepted, (kwargs, a.verdict)
        # geometry closure: quorum boundary and adjacent-run boundary
        from test_static import _run_with_miss_pattern

        fraction, run_len, ok = _run_with_miss_pattern({2, 5, 8}, 10)
        assert ok and fraction == pytest.approx(0.70)
        _, run_len, ok = _run_with_miss_pattern({3, 4, 5, 6}, 20)
        assert ok and run_len == 4
        _, run_len, ok = _run_with_miss_pattern({3, 4, 5, 6, 7}, 20)
        assert not ok and run_len == 5
        assert constants.total_delta_max_s == 1080.0  # the derived limits close

    _timed(run)
    report(7, "static threshold closure", True, "6 criteria at +/-1 s")


def test_criterion_7b_live_quorum_boundary():
    def run():
        cfg = LiveMatchConfig()
        for n in range(2, 41):
            need = math.ceil(0.75 * n)
            samples, index = _exact_match_setup(n, need)
            assert score_vehicle(samples, [n], ["v1"], cfg, index)[0].eligible, n
            samples, index = _exact_match_setup(n, need - 1)
            scored = score_vehicle(samples, [n], ["v1"], cfg, index)[0]
            assert scored is not None and not scored.eligible, n

    _timed(run)
    report(7, "live quorum boundary n in [2,40]", True)


def test_criterion_7c_planner_brute_force_equivalence():
    def run():
        for seed in range(40):
            rng = random.Random(seed)
            bundle = _random_bundle(rng)
            planner = TimetablePlanner(bundle, DAY, WALK_MPS)
            query = PlanQuery(
                offset_point(GeoPoint(60.17, 24.94), rng.uniform(-2500, 2500),
                             rng.uniform(-2500, 2500)),
                offset_point(GeoPoint(60.17, 24.94), rng.uniform(-2500, 2500),
                             rng.uniform(-2500, 2500)),
                at(rng.randrange(0, 3600, 30)),
                max_walk_m=rng.choice([500.0, 1000.0]),
                n_plans=3)
            expected = [t for t, _ in oracle_plan(bundle, DAY, query)]
            got = [it.transit.trip_id
                   for it in planner.plan(query).itineraries]
            assert got == expected, seed

    _timed(run)
    report(7, "planner brute-force equivalence", True, "40 random fixtures")


def test_criterion_7d_geodesy_oracle_agreement():
    def run():
        assert distance_m((60.1719, 24.9414), (60.1699, 24.9414)) \
            == pytest.approx(222.390, abs=1.0)
        assert distance_m((60.17, 24.94), (60.17, 24.96)) \
            == pytest.approx(1106.230, rel=0.005)

    _timed(run)
    report(7, "geodesy oracle agreement", True, "within 0.5%")


def test_criterion_7e_filter_determinism_fuzz():
    def run():
        cfg = FilterConfig()
        base = GeoPoint(60.17, 24.94)
        activities = list(Activity)
        for stream in range(10_000):
            rng = random.Random(stream)
            points = []
            t = 0.0
            for _ in range(rng.randint(1, 10)):
                t += rng.choice([1.0, 10.0, 65.0, 4000.0])
                pos = offset_point(base, rng.uniform(-400, 400),
                                   rng.uniform(-400, 400))
                points.append(conftest.dp(
                    t, rng.choice(activities), lat=pos.lat, lng=pos.lng,
                    accuracy=rng.choice([5.0, 80.0, 1200.0])))

            def run_once():
                state = FilterState()
                out = []
                for p in points:
                    state, accepted, reason = accept_point(state, p, cfg)
                    out.append((accepted, reason))
                return out

            assert run_once() == run_once(), stream

    _timed(run)
    report(7, "filter determinism fuzz", True, "10,000 random streams")


def test_criterion_7_total_runtime():
    total = sum(_C7_SPENT)
    report(7, "property suite runtime", total < 120.0, f"{total:.1f}s")


# --- criterion 8: speed threshold demonstration ---

def test_criterion_8_speed_threshold():
    from tripmatch.live import match_live, match_live_old

    cfg = LiveMatchConfig()
    details = []
    ok = True
    for speed in (30.0, 50.0, 80.0):
        segment, index = _riding_setup(speed, sample_period_s=30.0,
                                       sample_phase_s=15.0)
        old = match_live_old(segment, cfg, index)
        new = match_live(segment, cfg, index)
        ok &= old is None and new is not None
        details.append(f"{speed:.0f} km/h: old "
                       f"{'miss' if old is None else 'hit'}, new "
                       f"{'hit' if new is not None else 'miss'}")
    # below the ~24 km/h derivation both methods must match
    segment, index = _riding_setup(20.0)
    ok &= (match_live_old(segment, cfg, index) is not None
           and match_live(segment, cfg, index) is not None)
    report(8, "speed threshold", ok, "; ".join(details))
