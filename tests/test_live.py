import math
from collections import Counter
from dataclasses import replace
from datetime import timedelta
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tripmatch import live
from tripmatch.config import RunConfig
from tripmatch.geodesy import (
    EARTH_RADIUS_M,
    distance_m,
    offset_point,
    point_to_linestring_m,
)
from tripmatch.ingest import _count_duplicates
from tripmatch.live import (
    NEW_LIVE,
    OLD_LIVE,
    LiveMatchConfig,
    PositionIndex,
    _pick_identity,
    _score_order,
    decide_live,
    match_live,
    match_live_old,
    prune_live,
    score_survivors,
    score_vehicle,
    select_user_samples,
)
from tripmatch.pipeline import run_live_stage
from tripmatch.segmentation import vehicular_candidates
from tripmatch.types import (
    Activity,
    FleetColumns,
    GeoPoint,
    LINE_TYPES,
    LineType,
    TraceColumns,
    VehiclePosition,
    as_seconds,
    from_seconds,
)

from conftest import at, fp, segment_of

CFG = LiveMatchConfig()
BASE = GeoPoint(60.17, 24.94)


def vp(seconds, pos, *, line_type=LineType.BUS, name="16", ref="v1"):
    return VehiclePosition(at(seconds), pos.lat, pos.lng, line_type, name, ref)


def index_of(rows):
    return PositionIndex(FleetColumns.from_positions(rows))


def decoded(index, rows):
    """(line_name, line_type, time) of each index row."""
    return [(index.names[index.line_name[r]], LINE_TYPES[index.line_type[r]],
             from_seconds(index.times_s[r])) for r in rows.tolist()]


def score_one(samples, ref, cfg, index, use_linestring=True):
    """score_vehicle of the one pair (samples, ref)."""
    return score_vehicle(samples, [len(samples)], [ref], cfg, index,
                         use_linestring)[0]


def same_score(a, b):
    """Two score_vehicle results are equal, NaN distances included."""
    if a is None or b is None:
        return a is b
    return ((a.vehicle_ref, a.score, a.matched_fraction, a.eligible) ==
            (b.vehicle_ref, b.score, b.matched_fraction, b.eligible)
            and np.array_equal(a.distances, b.distances, equal_nan=True)
            and np.array_equal(a.votes, b.votes))


def same_decision(a, b):
    """Two LiveDecisions are equal bit for bit, every score included."""
    return (all(np.array_equal(x, y) for x, y in zip(vars(a.samples).values(),
                                                     vars(b.samples).values()))
            and (a.use_linestring, a.in_range, list(a.scored), a.result) ==
            (b.use_linestring, b.in_range, list(b.scored), b.result)
            and all(same_score(a.scored[ref], b.scored[ref]) for ref in a.scored))


def boxes_of(index, t0, t1):
    """boxes_in_range of the vehicles of vehicles_in_range over the one
    window [t0, t1]."""
    t0_s, t1_s = as_seconds(t0), as_seconds(t1)
    slots = [index.slot(ref) for ref in index.vehicles_in_range(t0_s, t1_s)]
    return index.boxes_in_range(np.array(slots, dtype=np.int64),
                                np.array([t0_s]), np.array([t1_s]),
                                np.zeros(len(slots), dtype=np.intp))


def rows_of(index, slots, t0_s, t1_s):
    """window_rows of every (slot, window) pair: rows lo[i, j]:hi[i, j] are
    vehicle slots[i]'s fixes in window j."""
    shape = (len(slots), len(t0_s))
    lo, hi = index.window_rows(np.repeat(slots, shape[1]), t0_s, t1_s,
                               np.tile(np.arange(shape[1]), shape[0]))
    return lo.reshape(shape), hi.reshape(shape)


def trace_points(specs):
    return TraceColumns.from_points(
        fp(s, Activity.IN_VEHICLE, lat=p.lat, lng=p.lng) for s, p in specs)


def ride_segment(specs, device_id=1, segment_id=1):
    pts = [fp(s, Activity.IN_VEHICLE, device_id=device_id,
              lat=p.lat, lng=p.lng) for s, p in specs]
    return segment_of(pts, segment_id)


# --- select_user_samples ---

def test_short_trace_kept_whole():
    trace = trace_points([(10 * i, BASE) for i in range(10)])
    assert list(select_user_samples(trace, 40)) == list(trace)


def test_exactly_forty_kept_whole():
    trace = trace_points([(10 * i, BASE) for i in range(40)])
    assert list(select_user_samples(trace, 40)) == list(trace)


def test_seventy_nine_points_spread_evenly():
    # oracle: round(i * 78 / 39) = 2i, so every other index incl. 0 and 78
    trace = trace_points([(10 * i, BASE) for i in range(79)])
    picked = list(select_user_samples(trace, 40))
    assert len(picked) == 40
    assert picked == list(trace)[::2]
    assert picked[0] == list(trace)[0] and picked[-1] == list(trace)[78]


def test_sample_rows_follow_rounded_even_spread():
    # the rows of round(i * last / (max_samples - 1)), half to even
    for n in range(1, 201):
        trace = TraceColumns(
            np.arange(n, dtype=np.float64), np.ones(n, dtype=np.int64),
            np.zeros(n), np.zeros(n), np.zeros(n, dtype=np.int8))
        for max_samples in range(2, 61):
            rows = select_user_samples(trace, max_samples).times_s.tolist()
            want = (list(range(n)) if n <= max_samples else
                    [round(i * (n - 1) / (max_samples - 1))
                     for i in range(max_samples)])
            assert rows == want, (n, max_samples)


# --- PositionIndex ---

def test_shift_handover_gap_is_not_in_range():
    # v1 ends a shift before the window and starts the next after it
    index = index_of([vp(-600, BASE, ref="v1"), vp(600, BASE, ref="v1"),
                      vp(0, BASE, ref="v2")])
    assert index.vehicles_in_range(as_seconds(at(-300)), as_seconds(at(300))) == ["v2"]
    assert boxes_of(index, at(-300), at(300)).shape == (1, 4)


def test_fix_at_either_window_end_is_in_range():
    index = index_of([vp(-300, BASE, ref="vb"), vp(300, BASE, ref="va")])
    assert index.vehicles_in_range(as_seconds(at(-300)), as_seconds(at(300))) == ["va", "vb"]
    assert index.vehicles_in_range(as_seconds(at(-299)), as_seconds(at(299))) == []
    assert boxes_of(index, at(-299), at(299)).shape == (0, 4)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 40), st.sampled_from("abcd"),
                          st.floats(-500, 500), st.floats(-500, 500)),
                max_size=30),
       st.integers(0, 40), st.integers(0, 20))
def test_index_window_queries_agree_with_brute_force(fixes, start, span):
    rows = [vp(10 * t, offset_point(BASE, e, n), ref=ref)
            for t, ref, e, n in fixes]
    index = index_of(rows)
    t0, t1 = at(10 * start), at(10 * (start + span))
    inside = [r for r in rows if t0 <= r.time <= t1]
    refs = sorted({r.vehicle_ref for r in inside})
    assert index.vehicles_in_range(as_seconds(t0), as_seconds(t1)) == refs
    expected = [(min(r.lat for r in inside if r.vehicle_ref == ref),
                 min(r.lng for r in inside if r.vehicle_ref == ref),
                 max(r.lat for r in inside if r.vehicle_ref == ref),
                 max(r.lng for r in inside if r.vehicle_ref == ref))
                for ref in refs]
    assert [tuple(b) for b in boxes_of(index, t0, t1).tolist()] == expected
    lo, hi = rows_of(index, np.arange(len(index)), np.array([as_seconds(t0)]),
                     np.array([as_seconds(t1)]))
    assert [sorted(r.time for r in inside if r.vehicle_ref == ref)
            for ref in index.vehicle_refs] == \
        [[from_seconds(t) for t in index.times_s[a:b]]
         for a, b in zip(lo[:, 0].tolist(), hi[:, 0].tolist())]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 12), st.sampled_from("abcde")),
                max_size=40),
       st.lists(st.integers(0, 39), max_size=6),
       st.lists(st.tuples(st.integers(-1, 13), st.integers(0, 6)),
                min_size=1, max_size=4))
def test_index_time_ranks_and_queries_agree_with_brute_force(fixes, repeats,
                                                             spans):
    """Over fleets with tied times, duplicate rows, one-fix vehicles or no
    rows: each fix's key is its vehicle's slot and the number of fixes
    earlier than it, as a search of every time through the by-time order
    counts them; vehicles_in_range and window_rows select what a filter of the
    rows selects."""
    fixes = fixes + [fixes[i] for i in repeats if i < len(fixes)]
    index = index_of([vp(10 * t, BASE, ref=ref) for t, ref in fixes])
    times = index.times_s.tolist()
    ranks = np.searchsorted(index.times_s, index.times_s, sorter=index._by_time)
    assert (index._key % index._stride).tolist() == ranks.tolist() == [
        sum(u < t for u in times) for t in times]
    assert (index._key // index._stride).tolist() == [
        slot for slot, ref in enumerate(index.vehicle_refs)
        for _ in range(sum(r == ref for _, r in fixes))]
    t0_s = np.array([as_seconds(at(10 * start)) for start, _ in spans])
    t1_s = np.array([as_seconds(at(10 * (start + span))) for start, span in spans])
    lo, hi = rows_of(index, np.arange(len(index)), t0_s, t1_s)
    for j, (t0, t1) in enumerate(zip(t0_s.tolist(), t1_s.tolist())):
        inside = [(ref, as_seconds(at(10 * t))) for t, ref in fixes
                  if t0 <= as_seconds(at(10 * t)) <= t1]
        assert index.vehicles_in_range(t0, t1) == sorted({ref for ref, _ in inside})
        assert [index.times_s[a:b].tolist() for a, b in zip(lo[:, j], hi[:, j])] == \
            [sorted(t for r, t in inside if r == ref) for ref in index.vehicle_refs]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 12), st.sampled_from("abcde"),
                          st.integers(-2, 2)), max_size=40),
       st.lists(st.integers(0, 39), max_size=6), st.randoms(use_true_random=False),
       st.lists(st.tuples(st.integers(-1, 13), st.integers(0, 6)),
                min_size=1, max_size=4))
def test_index_of_rows_out_of_time_order_answers_as_in_time_order(
        fixes, repeats, random, spans):
    """The rows of a fleet with tied times across vehicles and duplicate
    rows, permuted out of time order, give the index of the same rows in
    time order the same times, keys and answers; the time sorts order the
    rows as lexsort does, and the same duplicates are counted."""
    fixes = fixes + [fixes[i] for i in repeats if i < len(fixes)]
    rows = [vp(10 * t, offset_point(BASE, 0, 100 * n), ref=ref)
            for t, ref, n in fixes]
    fleets = [FleetColumns.from_positions(order) for order in
              (sorted(rows, key=lambda r: r.time), random.sample(rows, len(rows)))]
    for fleet in fleets:
        by_time, by_vehicle = fleet.time_sorts(fleet.vehicle_ref)
        assert by_time[by_vehicle].tolist() == \
            np.lexsort((fleet.times_s, fleet.vehicle_ref)).tolist()
    assert len({_count_duplicates(fleet) for fleet in fleets}) == 1
    ordered, permuted = map(PositionIndex, fleets)
    assert ordered.times_s.tolist() == permuted.times_s.tolist()
    assert ordered._key.tolist() == permuted._key.tolist()
    slots = np.arange(len(ordered))
    t0_s = np.array([as_seconds(at(10 * start)) for start, _ in spans])
    t1_s = np.array([as_seconds(at(10 * (start + span))) for start, span in spans])
    for t0, t1 in zip(t0_s.tolist(), t1_s.tolist()):
        assert ordered.vehicles_in_range(t0, t1) == \
            permuted.vehicles_in_range(t0, t1)
    pairs = (np.repeat(slots, len(spans)), t0_s, t1_s,
             np.tile(np.arange(len(spans)), len(slots)))
    for a, b in zip(ordered.window_rows(*pairs), permuted.window_rows(*pairs)):
        assert a.tolist() == b.tolist()
    assert ordered.boxes_in_range(*pairs).tolist() == \
        permuted.boxes_in_range(*pairs).tolist()


# --- score_vehicle ---

def test_window_collects_surrounding_fixes():
    # the sample's window holds the fixes at -30, 0 and +30 s; the one at
    # +120 s lies on the sample but is outside it
    index = index_of([vp(-30, offset_point(BASE, 0, 20)),
                      vp(0, offset_point(BASE, 0, 60)),
                      vp(30, offset_point(BASE, 0, 40)), vp(120, BASE)])
    scored = score_one(trace_points([(0, BASE)]), "v1", CFG, index,
                       use_linestring=False)
    assert scored.distances[0] == pytest.approx(20, abs=0.01)
    assert [t for _, _, t in decoded(index, scored.votes)] == [at(-30)]


def test_fix_outside_window_is_empty():
    index = index_of([vp(-90, BASE)])
    assert score_one(trace_points([(0, BASE)]), "v1", CFG, index) is None


def test_window_endpoints_inclusive():
    index = index_of([vp(-60, BASE), vp(60, BASE)])
    scored = score_one(trace_points([(0, BASE)]), "v1", CFG, index)
    assert scored.distances.tolist() == [0.0]


def test_unknown_vehicle_is_empty():
    index = index_of([vp(0, BASE)])
    samples = trace_points([(0, BASE), (10, BASE)])
    assert score_one(samples, "v1", CFG, index).eligible
    assert score_one(samples, "ghost", CFG, index) is None


def _exact_match_setup(n_samples, n_matched, offset_m=0.0):
    """n_samples user samples 100 s apart; the first n_matched have vehicle
    fixes bracketing them on a meridian line offset_m east; the rest have no
    fix within the window."""
    samples = []
    rows = []
    for i in range(n_samples):
        t = 100.0 * i
        pos = offset_point(BASE, 0.0, 400.0 * i)
        samples.append((t, pos))
        if i < n_matched:
            line_base = offset_point(pos, offset_m, 0.0)
            rows.append(vp(t - 10, offset_point(line_base, 0.0, -40.0)))
            rows.append(vp(t + 10, offset_point(line_base, 0.0, 40.0)))
    return trace_points(samples), index_of(rows)


def test_perfect_match_scores_full():
    samples, index = _exact_match_setup(40, 40, offset_m=0.0)
    scored = score_one(samples, "v1", CFG, index)
    assert scored is not None and scored.eligible
    assert scored.matched_fraction == 1.0
    assert scored.score == pytest.approx(4000.0, abs=1.0)


def test_quorum_boundary_30_of_40_at_50m():
    samples, index = _exact_match_setup(40, 30, offset_m=50.0)
    scored = score_one(samples, "v1", CFG, index)
    assert scored is not None and scored.eligible
    assert scored.matched_fraction == pytest.approx(0.75)
    assert scored.score == pytest.approx(30 * 50.0, abs=1.0)


def test_29_of_40_rejected():
    # below the quorum the score is still reported, but not eligible
    samples, index = _exact_match_setup(40, 29, offset_m=50.0)
    scored = score_one(samples, "v1", CFG, index)
    assert scored is not None and not scored.eligible
    assert scored.matched_fraction == pytest.approx(29 / 40)


def test_all_samples_just_outside_limit_rejected():
    samples, index = _exact_match_setup(10, 10, offset_m=101.0)
    assert score_one(samples, "v1", CFG, index) is None


def test_empty_window_samples_stay_in_denominator():
    samples, index = _exact_match_setup(4, 3, offset_m=0.0)
    scored = score_one(samples, "v1", CFG, index)
    assert scored is not None and scored.eligible
    assert scored.matched_fraction == pytest.approx(0.75)
    assert math.isnan(scored.distances[3])


@pytest.mark.parametrize("n", range(2, 41))
def test_quorum_boundary_across_sample_counts(n):
    need = math.ceil(0.75 * n)
    samples, index = _exact_match_setup(n, need)
    assert score_one(samples, "v1", CFG, index).eligible
    samples, index = _exact_match_setup(n, need - 1)
    scored = score_one(samples, "v1", CFG, index)
    assert scored is not None and not scored.eligible


@pytest.mark.parametrize("max_rows", [1, 3, 8, live._MAX_SCORED_ROWS])
def test_one_pass_scores_each_pair_as_it_scores_alone(max_rows):
    # v1 runs 30 m east of every sample but the last, whose window is
    # empty; v2 has a fix at every sample, 150 m east of it
    samples = trace_points([(100.0 * i, offset_point(BASE, 0.0, 400.0 * i))
                            for i in range(6)])
    rows = [vp(100.0 * i + dt, offset_point(BASE, 30.0, 400.0 * i + dt), ref="v1")
            for i in range(5) for dt in (-10.0, 10.0)]
    rows += [vp(100.0 * i, offset_point(BASE, 150.0, 400.0 * i), ref="v2")
             for i in range(6)]
    index = index_of(rows)
    later = trace_points([(5000.0 + 100.0 * i, offset_point(BASE, 0.0, 400.0 * i))
                          for i in range(6)])
    pairs = [(samples, "v1"), (samples, "ghost"), (later, "v1"), (samples, "v2"),
             (samples[:0], "v1"), (samples[:3], "v1"), (samples, "v1")]
    for use_linestring in (True, False):
        alone = [score_one(*pair, CFG, index, use_linestring) for pair in pairs]
        with mock.patch.object(live, "_MAX_SCORED_ROWS", max_rows):
            together = score_vehicle(
                TraceColumns.concat([p for p, _ in pairs]),
                [len(p) for p, _ in pairs], [ref for _, ref in pairs], CFG,
                index, use_linestring)
        # an unknown ref, a pair whose windows are all empty, one with no
        # sample within the limit and one without samples score None
        assert [s is None for s in together] == \
            [False, True, True, True, True, False, False]
        assert all(same_score(a, b) for a, b in zip(together, alone))
        assert together[0].matched_fraction == 5 / 6
        assert math.isnan(together[0].distances[5])
        assert together[5].matched_fraction == 1.0
    assert score_vehicle(samples[:0], [], [], CFG, index) == []


@settings(max_examples=60, deadline=None)
@given(st.floats(1.0, 99.0), st.floats(0.1, 0.9))
def test_score_monotone_in_distance(d_far, shrink):
    samples, index = _exact_match_setup(8, 8, offset_m=d_far)
    closer_samples, closer_index = _exact_match_setup(8, 8, offset_m=d_far * shrink)
    far = score_one(samples, "v1", CFG, index)
    near = score_one(closer_samples, "v1", CFG, closer_index)
    assert far is not None and near is not None
    assert far.eligible and near.eligible
    assert near.score >= far.score - 1e-6


def _reference_score(samples, rows, ref, cfg, use_linestring):
    """The per-sample loop with the scalar geodesy functions; None when no
    sample matches."""
    track = sorted((r for r in rows if r.vehicle_ref == ref),
                   key=lambda r: r.time)
    window = timedelta(seconds=cfg.window_s)
    distances, votes, score = [], [], 0.0
    for sample in samples:
        fixes = [r for r in track
                 if sample.time - window <= r.time <= sample.time + window]
        if not fixes:
            distances.append(None)
            continue
        p = (sample.lat, sample.lng)
        point_dists = [distance_m(p, (f.lat, f.lng)) for f in fixes]
        d = (point_to_linestring_m(p, [(f.lat, f.lng) for f in fixes])
             if use_linestring else min(point_dists))
        distances.append(d)
        if d <= cfg.distance_limit_m:
            score += cfg.distance_limit_m - d
            nearest = fixes[point_dists.index(min(point_dists))]
            votes.append((nearest.line_name, nearest.line_type, nearest.time))
    if not votes:
        return None
    fraction = len(votes) / len(samples)
    eligible = not (fraction < cfg.quorum_fraction or score <= 0.0)
    return score, fraction, distances, votes, eligible


_offsets = st.tuples(st.floats(-150, 150), st.floats(-150, 150))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 60), _offsets, st.sampled_from("ab"),
                          st.sampled_from(["16", "99"])), max_size=25),
       st.lists(st.tuples(st.integers(0, 60), _offsets), min_size=1,
                max_size=12),
       st.sampled_from([0.01, 0.75]), st.booleans())
def test_score_vehicle_agrees_with_scalar_reference(fixes, picks, quorum,
                                                    use_linestring):
    cfg = LiveMatchConfig(quorum_fraction=quorum)
    rows = [vp(10 * t, offset_point(BASE, *off), name=name, ref=ref)
            for t, off, ref, name in fixes]
    samples = trace_points((10 * t, offset_point(BASE, *off)) for t, off in picks)
    index = index_of(rows)
    both = score_vehicle(TraceColumns.concat([samples, samples]),
                         [len(samples)] * 2, ["a", "b"], cfg, index,
                         use_linestring)
    for ref, got in zip(("a", "b"), both):
        want = _reference_score(samples, rows, ref, cfg, use_linestring)
        if want is None:
            assert got is None
            continue
        score, fraction, distances, votes, eligible = want
        assert got is not None
        assert got.eligible is eligible
        assert got.matched_fraction == fraction
        assert decoded(index, got.votes) == votes
        assert got.distances.dtype == np.float64
        assert np.isnan(got.distances).tolist() == [d is None for d in distances]
        for d_got, d_want in zip(got.distances.tolist(), distances):
            if d_want is not None:
                assert d_got == pytest.approx(d_want, abs=1e-9)
        assert got.score == pytest.approx(score, abs=1e-9 * len(samples))
        finite = [d for d in distances if d is not None and not math.isinf(d)]
        assert _score_order(got)[2] == pytest.approx(
            sum(finite) / len(finite) if finite else math.inf, abs=1e-9)


def _tuple_rule(votes, midpoint):
    """The reference identity rule, over decoded (line_name, line_type,
    time) votes: the modal name, ties to the name seen nearest the
    midpoint, then the lesser name; the type of the winner's vote nearest
    the midpoint, then the earlier, then the lesser type value."""
    counts = Counter(name for name, _, _ in votes)
    top = max(counts.values())

    def tie_key(name):
        nearest = min(abs((t - midpoint).total_seconds())
                      for n, _, t in votes if n == name)
        return nearest, name

    winner = min((name for name, c in counts.items() if c == top), key=tie_key)
    candidates = [(abs((t - midpoint).total_seconds()), t, lt.value, lt)
                  for n, lt, t in votes if n == winner]
    candidates.sort(key=lambda item: (item[0], item[1], item[2]))
    return winner, candidates[0][3]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.sampled_from(["16", "550", "M"]),
                          st.sampled_from(list(LineType))), min_size=1, max_size=12),
       st.lists(st.integers(0, 11), min_size=1, max_size=15),
       st.integers(-10, 100))
# the winner's fixes 10 s either side of the midpoint: the earlier one's
# type, though the later one's value is the lesser
@example([(0, "16", LineType.TRAIN), (2, "16", LineType.BUS)], [0, 1], 20)
def test_pick_identity_agrees_with_the_tuple_rule(fixes, picks, half_s):
    """Over random names and types, fixes at tied times, repeated votes and
    midpoints on half seconds, _pick_identity over index rows names the
    line as the tuple rule names it over the decoded rows."""
    index = index_of([vp(10 * t, BASE, name=name, line_type=line_type)
                      for t, name, line_type in fixes])
    votes = np.array([k % len(fixes) for k in picks])
    midpoint = at(half_s / 2)
    assert _pick_identity(index, votes, as_seconds(midpoint)) == \
        _tuple_rule(decoded(index, votes), midpoint)


# --- match_live ---

def _riding_setup(speed_kmh, fix_period_s=30.0, sample_period_s=10.0,
                  duration_s=600.0, sample_phase_s=0.0, ref="v1",
                  name="16", line_type=LineType.BUS, extra_rows=()):
    """A vehicle going due north at constant speed with a rider aboard."""
    v = speed_kmh / 3.6
    rows = []
    t = 0.0
    while t <= duration_s:
        rows.append(vp(t, offset_point(BASE, 0.0, v * t), ref=ref, name=name,
                       line_type=line_type))
        t += fix_period_s
    rows.extend(extra_rows)
    specs = []
    t = sample_phase_s
    while t <= duration_s:
        specs.append((t, offset_point(BASE, 0.0, v * t)))
        t += sample_period_s
    return ride_segment(specs), index_of(rows)


def test_match_live_identifies_vehicle():
    segment, index = _riding_setup(20.0)
    result = match_live(segment, CFG, index)
    assert result is not None
    assert result.vehicle_ref == "v1"
    assert result.line_type is LineType.BUS
    assert result.line_name == "16"
    assert result.matched_fraction >= 0.75
    assert result.score > 0


def test_match_live_prefers_nearer_vehicle():
    segment, index = _riding_setup(20.0)
    far_rows = []
    v = 20.0 / 3.6
    for k in range(21):
        t = 30.0 * k
        pos = offset_point(BASE, 80.0, v * t)  # parallel track 80 m east
        far_rows.append(vp(t, pos, ref="v2", name="99"))
    segment, index = _riding_setup(20.0, extra_rows=far_rows)
    result = match_live(segment, CFG, index)
    assert result.vehicle_ref == "v1"


def test_modal_name_vote_beats_flicker():
    v = 20.0 / 3.6
    rows = []
    for k in range(21):
        t = 30.0 * k
        name = "99" if k % 5 == 0 else "550"  # intermittent bogus label
        rows.append(vp(t, offset_point(BASE, 0.0, v * t), name=name))
    specs = [(10.0 * i, offset_point(BASE, 0.0, v * 10.0 * i))
             for i in range(61)]
    result = match_live(ride_segment(specs), CFG, index_of(rows))
    assert result is not None
    assert result.line_name == "550"


def test_no_vehicles_in_time_range_is_no_result():
    segment, _ = _riding_setup(20.0)
    late_rows = [vp(5000.0 + 30 * k, offset_point(BASE, 0.0, 5.0 * k))
                 for k in range(10)]
    assert match_live(segment, CFG, index_of(late_rows)) is None


def test_tie_breaks_are_deterministic():
    # two vehicles with identical geometry: lexicographically smaller ref wins
    segment, _ = _riding_setup(20.0)
    v = 20.0 / 3.6
    rows = []
    for ref in ("vB", "vA"):
        for k in range(21):
            t = 30.0 * k
            rows.append(vp(t, offset_point(BASE, 0.0, v * t), ref=ref))
    results = {match_live(segment, CFG, index_of(rows)).vehicle_ref
               for _ in range(3)}
    assert results == {"vA"}


def test_score_vehicle_scores_each_vehicle_inside_the_prune_margin():
    # v2 runs 150 m east of the ride: inside the 200 m bbox margin, so it is
    # scored, but no sample comes within 100 m of it; v3 runs 400 m east,
    # beyond the margin, so it is pruned unscored
    v = 20.0 / 3.6
    aside = [vp(30.0 * k, offset_point(BASE, east, v * 30.0 * k), ref=ref)
             for ref, east in (("v2", 150.0), ("v3", 400.0)) for k in range(21)]
    segment, index = _riding_setup(20.0, extra_rows=aside)
    decision = decide_live(segment, CFG, index, NEW_LIVE)
    assert decision.result.vehicle_ref == "v1"
    assert decision.in_range == ["v1", "v2", "v3"]
    assert list(decision.scored) == ["v1", "v2"]
    samples = select_user_samples(segment.trace, CFG.max_user_samples)
    assert score_one(samples, "v2", CFG, index) is None
    assert decision.scored["v2"] is None


def _brute_force_match(segment, cfg, index, n_samples, use_linestring):
    """score_vehicle on every vehicle in the time range, with no bbox prune;
    the best eligible score by _score_order."""
    samples = select_user_samples(segment.trace, n_samples)
    t0_s = as_seconds(segment.start_time) - cfg.window_s
    t1_s = as_seconds(segment.end_time) + cfg.window_s
    scored = [score_one(samples, ref, cfg, index, use_linestring)
              for ref in index.vehicles_in_range(t0_s, t1_s)]
    return min((s for s in scored if s is not None and s.eligible),
               key=_score_order, default=None)


def test_prune_keeps_a_vehicle_beside_the_ride_within_a_wide_limit():
    # v2 runs 250 m east of every sample: beyond a 200 m prune margin, but
    # within a 300 m distance limit, so it must be scored and found
    cfg = LiveMatchConfig(distance_limit_m=300.0)
    v = 20.0 / 3.6
    rows = [vp(30.0 * k, offset_point(BASE, 250.0, v * 30.0 * k), ref="v2")
            for k in range(21)]
    segment = ride_segment([(10.0 * k, offset_point(BASE, 0.0, v * 10.0 * k))
                            for k in range(61)])
    index = index_of(rows)
    for matcher, n_samples, use_linestring in (
            (match_live, cfg.max_user_samples, True),
            (match_live_old, cfg.old_live_samples, False)):
        want = _brute_force_match(segment, cfg, index, n_samples, use_linestring)
        assert want.vehicle_ref == "v2" and want.matched_fraction == 1.0
        got = matcher(segment, cfg, index)
        assert got is not None
        assert (got.vehicle_ref, got.score, got.matched_fraction) == \
            (want.vehicle_ref, want.score, want.matched_fraction)


SAMPLE_SPACING_S = 150.0  # more than two windows, so windows never share a fix
_LIMITS = [100.0, 300.0]  # distance limits; the offsets below scale with them
_NEAR_E = [0.0, 40.0, 90.0]  # east offsets at a limit of 100 m: within it
_FAR_E = [150.0, 400.0]      # beyond it; 150 m stays inside the prune margin
_fix_kind = st.one_of(
    st.tuples(st.just("one"), st.sampled_from([-60.0, -20.0, 0.0, 45.0, 60.0])),
    st.tuples(st.just("two"), st.sampled_from([20.0, 30.0, 60.0])),
    st.tuples(st.just("none"), st.sampled_from([-61.0, 75.0])),
)


def _fixes_near_sample(i, kind, east_m, ref):
    """Fixes of one vehicle around sample i: one fix, two fixes bracketing
    the sample 50 m either side of it, or one fix just outside its window."""
    t = SAMPLE_SPACING_S * i
    north = 200.0 * i
    what, dt = kind
    if what == "two":
        return [vp(t - dt, offset_point(BASE, east_m, north - 50.0), ref=ref),
                vp(t + dt, offset_point(BASE, east_m, north + 50.0), ref=ref)]
    return [vp(t + dt, offset_point(BASE, east_m, north), ref=ref)]


@st.composite
def _fleet_scenarios(draw):
    k = draw(st.integers(2, 10))
    quorum = draw(st.sampled_from([0.5, 0.75, 1.0]))
    limit = draw(st.sampled_from(_LIMITS))
    need = math.ceil(quorum * k)
    rows = []
    for v in range(draw(st.integers(1, 4))):
        ref = f"v{v}"
        # just below, at or above the quorum of the full sample set
        n_near = min(k, max(0, need + draw(st.sampled_from([-1, 0, 1]))))
        near = set(draw(st.permutations(range(k)))[:n_near])
        for i in range(k):
            kind = draw(_fix_kind)
            offsets = _NEAR_E if i in near and kind[0] != "none" else _FAR_E
            east = draw(st.sampled_from(offsets)) * limit / 100.0
            rows.extend(_fixes_near_sample(i, kind, east, ref))
    if draw(st.booleans()):
        # an exact copy of v0 ties with it on every score; the ref decides
        copy = draw(st.sampled_from(["a-copy", "z-copy"]))
        rows.extend(replace(r, vehicle_ref=copy) for r in rows
                    if r.vehicle_ref == "v0")
    specs = [(SAMPLE_SPACING_S * i, offset_point(BASE, 0.0, 200.0 * i))
             for i in range(k)]
    return ride_segment(specs), rows, LiveMatchConfig(
        quorum_fraction=quorum, distance_limit_m=limit)


@settings(max_examples=300, deadline=None)
@given(_fleet_scenarios())
def test_matchers_agree_with_brute_force(scenario):
    _assert_matchers_agree_with_brute_force(*scenario)


def _assert_matchers_agree_with_brute_force(segment, rows, cfg):
    """Both matchers equal _brute_force_match, and every vehicle in range
    that score_vehicle does not see is one it would reject."""
    index = index_of(rows)
    for matcher, method, n_samples, use_linestring in (
            (match_live, NEW_LIVE, cfg.max_user_samples, True),
            (match_live_old, OLD_LIVE, cfg.old_live_samples, False)):
        decision = decide_live(segment, cfg, index, method)
        got = matcher(segment, cfg, index)
        assert got == decision.result
        want = _brute_force_match(segment, cfg, index, n_samples, use_linestring)
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert (got.vehicle_ref, got.score, got.matched_fraction) == \
                (want.vehicle_ref, want.score, want.matched_fraction)
            assert same_score(decision.scored[got.vehicle_ref], want)
        # the prune is sound: every vehicle it drops is one score_vehicle
        # rejects
        samples = select_user_samples(segment.trace, n_samples)
        t0_s = as_seconds(segment.start_time) - cfg.window_s
        t1_s = as_seconds(segment.end_time) + cfg.window_s
        assert decision.in_range == index.vehicles_in_range(t0_s, t1_s)
        for ref in decision.in_range:
            scored = score_one(samples, ref, cfg, index, use_linestring)
            if ref in decision.scored:
                assert same_score(decision.scored[ref], scored)
            else:
                assert scored is None or not scored.eligible


RIDE_MPS = 12.0  # the ride and every vehicle run north at this speed


@st.composite
def _dense_scenarios(draw):
    """A ride sampled every 10-45 s, so neighbouring windows share fixes and
    up to 60 points thin to 40 samples in several runs. Each vehicle either
    has one fix, or runs along the ride every 15-100 s, near it only from
    one point to another and with a stretch without fixes; at 100 s its
    fixes are 1200 m apart, so a sample between two of them is far from
    both but on the path they span."""
    quorum = draw(st.sampled_from([0.5, 0.75, 1.0]))
    limit = draw(st.sampled_from(_LIMITS))
    spacing = draw(st.sampled_from([10, 20, 45]))
    k = draw(st.integers(2, 60))
    end = spacing * (k - 1)

    def on_ride(t, east_m):
        return offset_point(BASE, east_m, RIDE_MPS * t)

    rows = []
    for v in range(draw(st.integers(1, 4))):
        ref = f"v{v}"
        times = st.integers(-90, end + 90)
        if draw(st.booleans()):
            t = draw(times)
            east = draw(st.sampled_from(_NEAR_E + _FAR_E)) * limit / 100.0
            rows.append(vp(t, on_ride(t, east), ref=ref))
            continue
        period = draw(st.sampled_from([15, 30, 100]))
        near_from, near_to = sorted((draw(times), draw(times)))
        gap_from, gap_to = sorted((draw(times), draw(times)))
        near_east = draw(st.sampled_from(_NEAR_E)) * limit / 100.0
        far_east = draw(st.sampled_from(_FAR_E)) * limit / 100.0
        for t in range(draw(st.integers(-150, -60)), end + 150, period):
            if not gap_from <= t <= gap_to:
                east = near_east if near_from <= t <= near_to else far_east
                rows.append(vp(t, on_ride(t, east), ref=ref))
    specs = [(spacing * i, on_ride(spacing * i, 0.0)) for i in range(k)]
    return ride_segment(specs), rows, LiveMatchConfig(
        quorum_fraction=quorum, distance_limit_m=limit)


@settings(max_examples=200, deadline=None)
@given(_dense_scenarios())
def test_run_prune_agrees_with_brute_force_on_dense_rides(scenario):
    _assert_matchers_agree_with_brute_force(*scenario)


def _reference_survivors(samples, in_range, rows, cfg):
    """The vehicles of in_range that the per-run box rule keeps, by scalar
    arithmetic over the rows: runs of n - need + 1 samples, each with its
    sample box widened by twice the distance limit; a vehicle whose fixes
    in a run's windows have a box apart from it, or none, misses the run,
    and it is kept while its missed runs leave it need samples or more."""
    n = len(samples)
    need = min(c for c in range(n + 1) if c / n >= cfg.quorum_fraction)
    size = n - need + 1
    times, lats, lngs = (c.tolist() for c in (samples.times_s, samples.lats,
                                              samples.lngs))
    margin = 2 * cfg.distance_limit_m
    dlat = math.degrees(margin / EARTH_RADIUS_M)
    kept = []
    for ref in in_range:
        missed = 0
        for a in range(0, n, size):
            b = min(a + size, n)
            lo_lat, hi_lat = min(lats[a:b]), max(lats[a:b])
            dlng = math.degrees(margin / (EARTH_RADIUS_M * max(
                0.01, math.cos(math.radians((lo_lat + hi_lat) / 2)))))
            fixes = [r for r in rows if r.vehicle_ref == ref and
                     times[a] - cfg.window_s <= as_seconds(r.time)
                     <= times[b - 1] + cfg.window_s]
            if not fixes or (
                    min(r.lat for r in fixes) > hi_lat + dlat
                    or max(r.lat for r in fixes) < lo_lat - dlat
                    or min(r.lng for r in fixes) > max(lngs[a:b]) + dlng
                    or max(r.lng for r in fixes) < min(lngs[a:b]) - dlng):
                missed += b - a
        if n - missed >= need:
            kept.append(ref)
    return kept


@st.composite
def _segment_sets(draw):
    """Rides of several devices at overlapping or distant times on one
    fleet, whose vehicles may be in range of more than one ride, and four
    fixed segments late in the day: one of a single point, one with no
    vehicle in range, one whose every vehicle in range is far from it, and
    one of three or four samples 150 s apart, so that no window holds the
    fix of another sample, with a vehicle near every sample and another
    near only the samples of its last run, whose whole-window box meets
    that run's box but which misses the other runs."""
    quorum = draw(st.sampled_from([0.5, 0.75, 1.0]))
    limit = draw(st.sampled_from(_LIMITS))
    rows, segments = [], []
    for i in range(draw(st.integers(1, 3))):
        start = draw(st.sampled_from([0, 200, 1500]))
        origin = offset_point(BASE, 800.0 * i, 0.0)
        k = draw(st.integers(2, 45))
        spacing = draw(st.sampled_from([10, 30]))

        def on_ride(t, east_m):
            return offset_point(origin, east_m, RIDE_MPS * (t - start))

        for v in range(draw(st.integers(1, 3))):
            ref = f"v{draw(st.integers(0, 4))}"
            period = draw(st.sampled_from([15, 30]))
            near_from, near_to = sorted(draw(st.integers(-60, spacing * k))
                                        for _ in range(2))
            near_east = draw(st.sampled_from(_NEAR_E)) * limit / 100.0
            far_east = draw(st.sampled_from(_FAR_E)) * limit / 100.0
            for t in range(-90, spacing * k + 90, period):
                east = near_east if near_from <= t <= near_to else far_east
                rows.append(vp(start + t, on_ride(start + t, east), ref=ref))
        segments.append(ride_segment(
            [(start + spacing * j, on_ride(start + spacing * j, 0.0))
             for j in range(k)], device_id=i + 1, segment_id=i + 1))
    late = 20000
    rows.append(vp(late, BASE, ref="v0"))
    segments.append(ride_segment([(late, BASE)], device_id=11, segment_id=11))
    segments.append(ride_segment([(late + 3000, BASE), (late + 3030, BASE)],
                                 device_id=12, segment_id=12))
    rows += [vp(late + 6000 + t, offset_point(BASE, 5000.0, 0.0), ref=ref)
             for t in (0, 30, 60) for ref in ("v1", "v2")]
    segments.append(ride_segment([(late + 6000, BASE), (late + 6060, BASE)],
                                 device_id=13, segment_id=13))
    # both methods match every sample, and need is 2 or more: two runs or more
    k = draw(st.integers(3, 4))
    cfg = LiveMatchConfig(quorum_fraction=quorum, distance_limit_m=limit)
    need = next(c for c in range(k + 1) if not c / k < quorum)
    last_run = (k - 1) // (k - need + 1) * (k - need + 1)
    t0 = late + 9000
    for j in range(k):
        here = offset_point(BASE, 0.0, 200.0 * j)
        rows.append(vp(t0 + 150 * j, here, ref="v3"))
        rows.append(vp(t0 + 150 * j, here if j >= last_run
                       else offset_point(here, 5000.0, 0.0), ref="v4"))
    segments.append(ride_segment(
        [(t0 + 150 * j, offset_point(BASE, 0.0, 200.0 * j)) for j in range(k)],
        device_id=14, segment_id=14))
    return segments, rows, cfg


def _pruned(candidates):
    """The samples' times, the vehicles in range and the survivors of each
    of candidates."""
    return [(c.samples.times_s.tolist(), c.in_range, c.survivors)
            for c in candidates]


@settings(max_examples=120, deadline=None)
@given(_segment_sets(), st.sampled_from([1, 5, 40, live._MAX_SCORED_ROWS]),
       st.sampled_from([1, 3, live._MAX_PAIRS]))
def test_stage_prune_equals_the_prune_of_each_segment(scenario, max_rows,
                                                      max_pairs):
    """Pruned together for both methods, the whole-window boxes taken in
    blocks of at most max_pairs pairs, segments of several devices and
    times get for each method what each gets alone for that method alone,
    which is what the per-run rule keeps; scored together in blocks of at
    most max_rows rows, each segment gets the decision that decide_live
    makes for it alone, bit for bit; the live stage matches as decide_live
    matches each segment; and every vehicle that the prune drops is one
    that score_vehicle rejects."""
    segments, rows, cfg = scenario
    index = index_of(rows)
    methods = [NEW_LIVE, OLD_LIVE]
    with mock.patch.object(live, "_MAX_PAIRS", max_pairs):
        pruned = prune_live(segments, cfg, index, methods)
    assert list(pruned) == methods
    stage = run_live_stage(RunConfig(live=cfg), segments, index, methods)
    assert list(stage) == methods
    for method, n_samples in ((NEW_LIVE, cfg.max_user_samples),
                              (OLD_LIVE, cfg.old_live_samples)):
        together = pruned[method]
        alone = [prune_live([s], cfg, index, [method])[method][0]
                 for s in segments]
        assert _pruned(together) == _pruned(alone)
        for s, c in zip(segments, together):
            assert c.samples.times_s.tolist() == \
                select_user_samples(s.trace, n_samples).times_s.tolist()
            if len(c.samples) < 2:
                assert c.in_range == c.survivors == []
            else:
                assert c.survivors == _reference_survivors(c.samples, c.in_range,
                                                           rows, cfg)
        assert [c.in_range for c in together[-4:-1]] == [[], [], ["v1", "v2"]]
        assert together[-2].survivors == []
        assert together[-1].in_range == ["v3", "v4"]
        assert together[-1].survivors == ["v3"]
        with mock.patch.object(live, "_MAX_SCORED_ROWS", max_rows):
            scored = score_survivors(together, cfg, index, method)
        for s, c in zip(segments, scored):
            assert same_decision(decide_live(s, cfg, index, method, c),
                                 decide_live(s, cfg, index, method))
        assert stage[method] == {
            s.segment_id: d.result for s in segments
            if (d := decide_live(s, cfg, index, method)).result is not None}
    for s in vehicular_candidates(segments):
        _assert_matchers_agree_with_brute_force(s, rows, cfg)


def _two_rides():
    """Two rides of 3 samples 150 s apart on one fleet, v1 beside the
    first, v2 beside the second and v3 far from both."""
    rows, segments = [], []
    for i, start in enumerate((0, 1000)):
        specs = [(start + 150 * j, offset_point(BASE, 0.0, 200.0 * j))
                 for j in range(3)]
        segments.append(ride_segment(specs, device_id=i + 1,
                                     segment_id=i + 1))
        for t, here in specs:
            rows.append(vp(t, here, ref=f"v{i + 1}"))
            rows.append(vp(t, offset_point(here, 5000.0, 0.0), ref="v3"))
    return segments, rows


def test_stage_of_one_live_method_prunes_as_a_stage_of_both():
    segments, rows = _two_rides()
    index = index_of(rows)
    with mock.patch.object(index, "vehicles_in_range",
                           wraps=index.vehicles_in_range) as query:
        both = prune_live(segments, CFG, index, [NEW_LIVE, OLD_LIVE])
    assert query.call_count == len(segments)
    for method in (NEW_LIVE, OLD_LIVE):
        one = prune_live(segments, CFG, index, [method])
        assert list(one) == [method]
        assert _pruned(one[method]) == _pruned(both[method])
        assert [c.survivors for c in one[method]] == [["v1"], ["v2"]]
        stage = run_live_stage(RunConfig(live=CFG), segments, index, [method])
        assert list(stage) == [method]
        assert [r.vehicle_ref for r in stage[method].values()] == ["v1", "v2"]
    assert prune_live(segments, CFG, index, []) == {}


def test_stage_without_a_segment_of_two_samples_queries_nothing():
    segments = [ride_segment([(100.0 * i, BASE)], device_id=i + 1,
                             segment_id=i + 1) for i in range(3)]
    index = index_of([vp(100.0 * i, BASE) for i in range(3)])
    with mock.patch.object(index, "vehicles_in_range",
                           wraps=index.vehicles_in_range) as query:
        pruned = prune_live(segments, CFG, index, [NEW_LIVE, OLD_LIVE])
    assert query.call_count == 0
    for method in (NEW_LIVE, OLD_LIVE):
        assert [(len(c.samples), c.in_range, c.survivors)
                for c in pruned[method]] == [(1, [], [])] * 3
    assert run_live_stage(RunConfig(live=CFG), segments, index,
                          [NEW_LIVE, OLD_LIVE]) == {NEW_LIVE: {}, OLD_LIVE: {}}


@pytest.mark.parametrize("quorum, survivors", [(0.5, ["v1"]), (1.0, [])])
def test_a_vehicle_of_a_single_fix_keeps_only_the_runs_it_meets(quorum,
                                                                 survivors):
    # two samples 150 s apart: the fix is in the first sample's window only,
    # so it meets the first run and misses the second
    specs = [(0.0, BASE), (150.0, offset_point(BASE, 0.0, 200.0))]
    segment = ride_segment(specs)
    rows = [vp(10.0, BASE)]
    index = index_of(rows)
    cfg = LiveMatchConfig(quorum_fraction=quorum)
    pruned = prune_live([segment], cfg, index, [NEW_LIVE, OLD_LIVE])
    for method in (NEW_LIVE, OLD_LIVE):
        [c] = pruned[method]
        assert (c.in_range, c.survivors) == (["v1"], survivors)
        assert c.survivors == _reference_survivors(c.samples, c.in_range,
                                                   rows, cfg)
    _assert_matchers_agree_with_brute_force(segment, rows, cfg)


# --- old live vs new live ---

def test_old_live_uses_four_samples_and_matches_slow_vehicle():
    segment, index = _riding_setup(14.0)
    new = match_live(segment, CFG, index)
    old = match_live_old(segment, CFG, index)
    assert new is not None and old is not None
    assert old.method == "old-live"
    decision = decide_live(segment, CFG, index, OLD_LIVE)
    assert len(decision.samples) == len(decision.scored["v1"].distances) == 4
    assert old.vehicle_ref == new.vehicle_ref == "v1"


def test_midway_samples_at_30kmh_break_old_but_not_new():
    # 30 km/h, 30 s fixes: samples midway between fixes sit ~125 m from the
    # nearest fix but on the interpolating linestring
    segment, index = _riding_setup(30.0, sample_period_s=30.0,
                                   sample_phase_s=15.0)
    assert match_live_old(segment, CFG, index) is None
    new = match_live(segment, CFG, index)
    assert new is not None
    assert new.vehicle_ref == "v1"


@settings(max_examples=40, deadline=None)
@given(st.floats(2.0, 23.5))
def test_both_methods_match_below_speed_threshold(speed_kmh):
    segment, index = _riding_setup(speed_kmh)
    assert match_live(segment, CFG, index) is not None
    assert match_live_old(segment, CFG, index) is not None


@settings(max_examples=40, deadline=None)
@given(st.floats(26.0, 80.0))
def test_above_threshold_only_new_is_guaranteed(speed_kmh):
    segment, index = _riding_setup(speed_kmh, sample_period_s=30.0,
                                   sample_phase_s=15.0)
    assert match_live(segment, CFG, index) is not None


def test_config_validation():
    with pytest.raises(ValueError):
        LiveMatchConfig(quorum_fraction=0.0)
    with pytest.raises(ValueError):
        LiveMatchConfig(distance_limit_m=-5)
