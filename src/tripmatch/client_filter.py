"""Offline re-implementation of the mobile client's point filter.

Two cooperating pieces:

* ``accept_point`` replays the per-fix acceptance rules (ping, accuracy,
  activity change, movement) in their fixed order.
* ``simulate_duty_cycle`` replays the ACTIVE/SLEEP power state machine with
  its restartable sleep timer.

``winning_activities`` picks each fix's reliable activity. Matchers consume
the published filtered table; the replay documents and tests the client's
rules.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta
from typing import Optional, Sequence

from .geodesy import distance_m
from .types import Activity, DevicePoint, GOOD_ACTIVITIES


class OutOfOrderError(Exception):
    """Points of one device must be fed in non-decreasing time order."""


class Mode(str, enum.Enum):
    ACTIVE = "ACTIVE"
    SLEEP = "SLEEP"


class Reason(str, enum.Enum):
    # accept reasons
    PING = "PING"
    ACTIVITY_CHANGE = "ACTIVITY_CHANGE"
    MOVED = "MOVED"
    # reject reasons
    ACCURACY = "ACCURACY"
    STATIONARY = "STATIONARY"
    NO_TRIGGER = "NO_TRIGGER"


@dataclass(frozen=True)
class FilterConfig:
    sleep_timer_s: float = 40.0
    ping_interval_s: float = 3600.0
    max_accuracy_m: float = 1000.0
    good_activities: frozenset[Activity] = GOOD_ACTIVITIES

    def __post_init__(self) -> None:
        if min(self.sleep_timer_s, self.ping_interval_s, self.max_accuracy_m) <= 0:
            raise ValueError("filter parameters must be positive")


@dataclass(frozen=True)
class FilterState:
    mode: Mode = Mode.ACTIVE
    sleep_timer_start: Optional[datetime] = None
    still_anchor: Optional[DevicePoint] = None  # fix the sleep timer measures from
    last_accepted: Optional[DevicePoint] = None
    last_queued_activity: Optional[Activity] = None
    last_time: Optional[datetime] = None

    def __post_init__(self) -> None:
        # the sleep timer only runs during a STILL run while ACTIVE
        if self.sleep_timer_start is not None and self.mode is not Mode.ACTIVE:
            raise ValueError("sleep timer cannot run outside ACTIVE mode")
        if (self.sleep_timer_start is None) != (self.still_anchor is None):
            raise ValueError("sleep timer and its anchor point go together")


def accept_point(state: FilterState, p: DevicePoint, cfg: FilterConfig,
                 ) -> tuple[FilterState, bool, Reason]:
    """Apply the acceptance rules to one fix, in fixed order:
    ping, accuracy gate, activity change, movement beyond accuracy.
    """
    if state.last_time is not None and p.time < state.last_time:
        raise OutOfOrderError(
            f"device {p.device_id}: point at {p.time} after {state.last_time}")

    top = p.top_activity
    is_good = top in cfg.good_activities

    def advance(accepted: bool, reason: Reason) -> tuple[FilterState, bool, Reason]:
        new = replace(
            state,
            last_time=p.time,
            last_accepted=p if accepted else state.last_accepted,
            last_queued_activity=top if is_good else state.last_queued_activity,
        )
        return new, accepted, reason

    if state.last_accepted is None or \
            (p.time - state.last_accepted.time).total_seconds() >= cfg.ping_interval_s:
        return advance(True, Reason.PING)
    if p.accuracy >= cfg.max_accuracy_m:
        return advance(False, Reason.ACCURACY)
    if top != state.last_queued_activity and is_good:
        return advance(True, Reason.ACTIVITY_CHANGE)
    if top == state.last_queued_activity:
        moved = distance_m(p.geo, state.last_accepted.geo)
        if moved > p.accuracy:
            return advance(True, Reason.MOVED)
        return advance(False, Reason.STATIONARY)
    return advance(False, Reason.NO_TRIGGER)


@dataclass(frozen=True)
class Transition:
    time: datetime
    from_mode: Mode
    to_mode: Mode


@dataclass
class DutyCycleResult:
    annotated: list[tuple[DevicePoint, Mode]] = field(default_factory=list)
    transitions: list[Transition] = field(default_factory=list)


def step_duty_cycle(state: FilterState, p: DevicePoint, cfg: FilterConfig,
                    ) -> tuple[FilterState, list[Transition]]:
    """Advance the ACTIVE/SLEEP state machine by one fix.

    The sleep timer starts when a STILL report arrives in ACTIVE mode and is
    restarted when the position moves further than the current fix's accuracy
    from the point the timer was started at. Expiry is decided on the
    knowledge available so far: a point at or past the deadline completes the
    transition even if that same point also shows movement. UNKNOWN/TILTING
    reports neither start, restart nor cancel the timer; any other non-STILL
    activity cancels it (and wakes a sleeping client).
    """
    if state.last_time is not None and p.time < state.last_time:
        raise OutOfOrderError(
            f"device {p.device_id}: point at {p.time} after {state.last_time}")
    transitions: list[Transition] = []
    mode = state.mode
    anchor = state.still_anchor
    top = p.top_activity

    if mode is Mode.ACTIVE and anchor is not None and \
            (p.time - anchor.time).total_seconds() >= cfg.sleep_timer_s:
        deadline = anchor.time + timedelta(seconds=cfg.sleep_timer_s)
        transitions.append(Transition(deadline, Mode.ACTIVE, Mode.SLEEP))
        mode = Mode.SLEEP
        anchor = None

    if top is Activity.STILL:
        if mode is Mode.ACTIVE:
            if anchor is None or distance_m(p.geo, anchor.geo) > p.accuracy:
                anchor = p  # start, or restart after movement
    elif top in cfg.good_activities:
        if mode is Mode.SLEEP:
            transitions.append(Transition(p.time, Mode.SLEEP, Mode.ACTIVE))
            mode = Mode.ACTIVE
        anchor = None

    new_state = replace(
        state, mode=mode, still_anchor=anchor,
        sleep_timer_start=anchor.time if anchor is not None else None,
        last_time=p.time)
    return new_state, transitions


def simulate_duty_cycle(points: Sequence[DevicePoint], cfg: FilterConfig,
                        ) -> DutyCycleResult:
    """Replay the ACTIVE/SLEEP state machine over one device's point stream,
    returning each point's mode and the transition log."""
    result = DutyCycleResult()
    state = FilterState()
    for p in points:
        state, transitions = step_duty_cycle(state, p, cfg)
        result.transitions.extend(transitions)
        result.annotated.append((p, state.mode))
    return result


def winning_activities(points: Sequence[DevicePoint],
                       cfg: FilterConfig | None = None) -> list[Optional[Activity]]:
    """Per-point winning activity for one device's stream.

    A point whose top-ranked activity is reliable wins with it outright.
    When the top estimate is UNKNOWN or TILTING the previous point's winner
    is inherited; lacking one, the point's own best-ranked reliable activity
    is used. Returns None only when nothing reliable has ever been seen.
    """
    good = (cfg or FilterConfig()).good_activities
    winners: list[Optional[Activity]] = []
    previous: Optional[Activity] = None
    for p in points:
        top = p.top_activity
        if top in good:
            winner: Optional[Activity] = top
        elif previous is not None:
            winner = previous
        else:
            winner = next((a for a, _ in p.activities if a in good), None)
        winners.append(winner)
        if winner is not None:
            previous = winner
    return winners


def select_activity(window: Sequence[DevicePoint],
                    cfg: FilterConfig | None = None) -> Optional[Activity]:
    """Winning activity for the center point of a window (earlier points act
    as inheritance history)."""
    if not window:
        raise ValueError("window must be non-empty")
    center = (len(window) - 1) // 2
    return winning_activities(window, cfg)[center]
