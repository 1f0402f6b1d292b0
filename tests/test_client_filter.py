import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripmatch.client_filter import (
    step_duty_cycle,
    FilterConfig,
    FilterState,
    Mode,
    OutOfOrderError,
    Reason,
    accept_point,
    select_activity,
    simulate_duty_cycle,
    winning_activities,
)
from tripmatch.geodesy import offset_point
from tripmatch.types import Activity, GeoPoint

from conftest import at, dp

CFG = FilterConfig()


def run_filter(points, cfg=CFG):
    state = FilterState()
    results = []
    for p in points:
        state, accepted, reason = accept_point(state, p, cfg)
        results.append((accepted, reason))
    return results


# --- accept_point ---

def test_first_point_accepted_as_ping():
    [(accepted, reason)] = run_filter([dp(0, Activity.STILL)])
    assert accepted and reason is Reason.PING


def test_ping_after_interval_accepts_anything():
    results = run_filter([dp(0, Activity.WALKING),
                          dp(3600, Activity.UNKNOWN, accuracy=5000)])
    assert results[1] == (True, Reason.PING)


def test_bad_accuracy_rejected():
    results = run_filter([dp(0, Activity.WALKING),
                          dp(300, Activity.STILL, accuracy=1500)])
    assert results[1] == (False, Reason.ACCURACY)


@pytest.mark.parametrize("field, value, message", [
    ("sleep_timer_s", float("nan"), "sleep_timer_s must be positive, got nan"),
    ("max_accuracy_m", True, "max_accuracy_m must be a number, got True"),
    ("ping_interval_s", 0, "ping_interval_s must be positive, got 0"),
])
def test_filter_config_refuses_a_bad_parameter(field, value, message):
    with pytest.raises(ValueError) as exc:
        FilterConfig(**{field: value})
    assert str(exc.value) == message


def test_accuracy_boundary_999_passes_1000_fails():
    ok = run_filter([dp(0, Activity.WALKING), dp(10, Activity.STILL,
                                                 accuracy=999.0)])
    bad = run_filter([dp(0, Activity.WALKING), dp(10, Activity.STILL,
                                                  accuracy=1000.0)])
    assert ok[1][0] is True
    assert bad[1] == (False, Reason.ACCURACY)


def test_activity_change_accepts_good_activity():
    results = run_filter([dp(0, Activity.WALKING), dp(10, Activity.IN_VEHICLE)])
    assert results[1] == (True, Reason.ACTIVITY_CHANGE)


def test_changed_but_unreliable_activity_not_accepted():
    results = run_filter([dp(0, Activity.WALKING), dp(10, Activity.TILTING)])
    assert results[1] == (False, Reason.NO_TRIGGER)


def test_same_activity_movement_rule():
    origin = GeoPoint(60.17, 24.94)
    near = offset_point(origin, 30.0, 0.0)
    far = offset_point(origin, 60.0, 0.0)
    base = dp(0, Activity.WALKING, lat=origin.lat, lng=origin.lng)
    stayed = dp(10, Activity.WALKING, lat=near.lat, lng=near.lng, accuracy=50)
    moved = dp(10, Activity.WALKING, lat=far.lat, lng=far.lng, accuracy=50)
    assert run_filter([base, stayed])[1] == (False, Reason.STATIONARY)
    assert run_filter([base, moved])[1] == (True, Reason.MOVED)


def test_queued_activity_updates_even_when_rejected():
    # WALKING queued; a rejected IN_VEHICLE point still updates the queue, so
    # the next IN_VEHICLE point no longer counts as an activity change
    origin = GeoPoint(60.17, 24.94)
    pts = [dp(0, Activity.WALKING),
           dp(10, Activity.IN_VEHICLE, accuracy=1500),
           dp(20, Activity.IN_VEHICLE, accuracy=50)]
    results = run_filter(pts)
    assert results[1] == (False, Reason.ACCURACY)
    assert results[2] == (False, Reason.STATIONARY)


def test_out_of_order_rejected():
    state = FilterState()
    state, _, _ = accept_point(state, dp(100, Activity.WALKING), CFG)
    with pytest.raises(OutOfOrderError):
        accept_point(state, dp(50, Activity.WALKING), CFG)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_accept_point_deterministic(seed):
    rng = random.Random(seed)
    pts = []
    t = 0.0
    for _ in range(rng.randint(1, 25)):
        t += rng.choice([1.0, 5.0, 10.0, 60.0, 4000.0])
        pos = offset_point(GeoPoint(60.17, 24.94),
                           rng.uniform(-500, 500), rng.uniform(-500, 500))
        pts.append(dp(t, rng.choice(list(Activity)), lat=pos.lat, lng=pos.lng,
                      accuracy=rng.choice([5.0, 30.0, 200.0, 1500.0])))
    assert run_filter(pts) == run_filter(pts)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(10, 120))
def test_no_gap_exceeds_ping_interval(seed, n):
    # with <= 10 s input spacing, the ping rule guarantees liveness
    rng = random.Random(seed)
    pts = []
    t = 0.0
    for _ in range(n):
        t += rng.uniform(1.0, 10.0)
        pts.append(dp(t, rng.choice(list(Activity)),
                      accuracy=rng.choice([10.0, 2000.0])))
    accepted_times = [p.time for p, (ok, _) in zip(pts, run_filter(pts)) if ok]
    assert accepted_times, "first point is always accepted"
    for a, b in zip(accepted_times, accepted_times[1:]):
        assert (b - a).total_seconds() <= CFG.ping_interval_s + 10.0


# --- duty cycle ---

def test_sleep_after_40s_still():
    pts = [dp(10 * i, Activity.STILL) for i in range(6)]
    duty = simulate_duty_cycle(pts, CFG)
    assert [t for t in duty.transitions] != []
    tr = duty.transitions[0]
    assert tr.to_mode is Mode.SLEEP
    assert tr.time == at(40)
    modes = [mode for _, mode in duty.annotated]
    assert modes == [Mode.ACTIVE] * 4 + [Mode.SLEEP] * 2


def test_movement_restarts_sleep_timer():
    origin = GeoPoint(60.17, 24.94)
    moved = offset_point(origin, 120.0, 0.0)  # beyond the 50 m accuracy
    pts = [dp(0, Activity.STILL, accuracy=50),
           dp(10, Activity.STILL, accuracy=50),
           dp(20, Activity.STILL, accuracy=50),
           dp(30, Activity.STILL, lat=moved.lat, lng=moved.lng, accuracy=50),
           dp(40, Activity.STILL, lat=moved.lat, lng=moved.lng, accuracy=50)]
    duty = simulate_duty_cycle(pts, CFG)
    assert duty.transitions == []
    assert all(mode is Mode.ACTIVE for _, mode in duty.annotated)


def test_walking_stream_never_sleeps():
    pts = [dp(10 * i, Activity.WALKING) for i in range(30)]
    duty = simulate_duty_cycle(pts, CFG)
    assert duty.transitions == []
    assert all(mode is Mode.ACTIVE for _, mode in duty.annotated)


def test_wake_on_good_non_still_activity():
    pts = [dp(10 * i, Activity.STILL) for i in range(6)]
    pts.append(dp(70, Activity.WALKING))
    duty = simulate_duty_cycle(pts, CFG)
    assert [(t.from_mode, t.to_mode) for t in duty.transitions] == [
        (Mode.ACTIVE, Mode.SLEEP), (Mode.SLEEP, Mode.ACTIVE)]
    assert duty.annotated[-1][1] is Mode.ACTIVE


def test_unknown_does_not_wake():
    pts = [dp(10 * i, Activity.STILL) for i in range(6)]
    pts.append(dp(70, Activity.UNKNOWN))
    duty = simulate_duty_cycle(pts, CFG)
    assert duty.annotated[-1][1] is Mode.SLEEP


def test_step_duty_cycle_keeps_state_invariant():
    state = FilterState()
    for p in [dp(0, Activity.WALKING), dp(10, Activity.STILL),
              dp(20, Activity.STILL), dp(60, Activity.STILL),
              dp(70, Activity.WALKING)]:
        state, _ = step_duty_cycle(state, p, CFG)
        if state.sleep_timer_start is not None:
            assert state.mode is Mode.ACTIVE
            assert state.still_anchor is not None
    assert state.mode is Mode.ACTIVE  # woken by the final WALKING point


def test_filter_state_rejects_inconsistent_sleep_fields():
    with pytest.raises(ValueError):
        FilterState(mode=Mode.SLEEP, sleep_timer_start=at(0),
                    still_anchor=dp(0, Activity.STILL))
    with pytest.raises(ValueError):
        FilterState(sleep_timer_start=at(0))


# --- activity selection ---

def test_all_still_wins_still():
    window = [dp(0, Activity.STILL), dp(10, Activity.STILL),
              dp(20, Activity.STILL)]
    assert select_activity(window) is Activity.STILL


def test_center_in_vehicle_wins():
    window = [dp(0, Activity.IN_VEHICLE),
              dp(10, [(Activity.IN_VEHICLE, 90), (Activity.STILL, 10)]),
              dp(20, Activity.IN_VEHICLE)]
    assert select_activity(window) is Activity.IN_VEHICLE


def test_alternating_tilting_inherits_vehicle():
    # oracle: exhaustive evaluation of the rule over the fixture; every
    # TILTING-top point inherits the previous reliable winner
    pts = []
    for i in range(8):
        if i % 2 == 0:
            pts.append(dp(10 * i, [(Activity.IN_VEHICLE, 80),
                                   (Activity.TILTING, 20)]))
        else:
            pts.append(dp(10 * i, [(Activity.TILTING, 70),
                                   (Activity.IN_VEHICLE, 30)]))
    assert winning_activities(pts) == [Activity.IN_VEHICLE] * 8


def test_leading_tilting_falls_back_to_own_ranked_good():
    pts = [dp(0, [(Activity.TILTING, 60), (Activity.WALKING, 40)])]
    assert winning_activities(pts) == [Activity.WALKING]


def test_leading_unknown_with_no_good_estimate():
    pts = [dp(0, [(Activity.UNKNOWN, 100)]), dp(10, Activity.WALKING)]
    assert winning_activities(pts) == [None, Activity.WALKING]
