"""Per-layer tracing from outside the program.

Each hook wraps one public name of a tripmatch layer, at every place the
name is bound, and records a span (name, start, end, parent, segment id)
plus the counters the per-layer metrics need. Spans stay in memory until
``Tracer.write_spans``. A hook whose name no longer exists fails at
install, and one that never fired fails ``check_fired``, so a refactor
cannot silently turn a per-layer metric into 0.

Untraced runs install only ``STAGE_HOOKS``, the six pipeline-stage timers
behind ``setup_s`` and ``match_s``.
"""
from __future__ import annotations

import importlib
import statistics
import sys
import time
import tracemalloc
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from tripmatch.segmentation import vehicular_candidates


class HookError(RuntimeError):
    pass


@dataclass(frozen=True)
class Hook:
    span: str     # its first dotted part names the layer
    target: str   # "module:attr" or "module:Class.method"
    segment_arg: Optional[int] = None  # positional argument holding the segment
    peak: bool = False  # keep the first call's arguments for measure_peaks
    count: Optional[Callable[[Counter, tuple, object], None]] = None


def _add(key: str, value: Callable[[tuple, object], float]):
    def count(counters: Counter, args: tuple, result) -> None:
        counters[key] += value(args, result)
    return count


def _count_segments(counters: Counter, args: tuple, result) -> None:
    counters["segmentation.segments"] += len(result)
    counters["segmentation.vehicular"] += len(vehicular_candidates(result))


def _count_plans(counters: Counter, args: tuple, result) -> None:
    counters["planner.itineraries"] += len(result.itineraries)
    counters["planner.no_plan"] += not result.itineraries


_matched = _add("live.matched", lambda a, r: r is not None)

SETUP_STAGES = ("load_filtered", "load_trips", "build_position_index",
                "build_planner")
MATCH_STAGES = ("run_live_stage", "run_static_stage")
STAGE_HOOKS = tuple(Hook(f"pipeline.{kind}", f"tripmatch.pipeline:{name}")
                    for kind, names in (("setup", SETUP_STAGES),
                                        ("match", MATCH_STAGES))
                    for name in names)

HOOKS = STAGE_HOOKS + (
    Hook("pipeline.run_all", "tripmatch.pipeline:run_all"),
    Hook("pipeline.write", "tripmatch.pipeline:write_match_csv"),
    Hook("pipeline.write", "tripmatch.segmentation:write_segments_csv"),
    Hook("pipeline.write", "tripmatch.static:write_assessments_csv"),
    Hook("pipeline.write", "tripmatch.evaluation:write_inventory_csv"),
    Hook("evaluation.run", "tripmatch.pipeline:run_evaluation"),
    Hook("ingest.filtered", "tripmatch.ingest:load_filtered_data"),
    Hook("ingest.manual_log", "tripmatch.ingest:load_manual_log"),
    Hook("ingest.transit_live", "tripmatch.ingest:load_transit_live",
         count=_add("ingest.transit_live.rows", lambda a, r: len(r))),
    Hook("segmentation.build", "tripmatch.segmentation:build_segments",
         count=_count_segments),
    Hook("live.index_build", "tripmatch.live:PositionIndex.__init__",
         count=_add("live.vehicles", lambda a, r: len(a[0]))),
    Hook("live.vehicles_in_range",
         "tripmatch.live:PositionIndex.vehicles_in_range",
         count=_add("live.vehicles_in_range.returned", lambda a, r: len(r))),
    Hook("live.score_vehicle", "tripmatch.live:score_vehicle",
         count=_add("live.sample_vehicle_pairs", lambda a, r: len(a[0]))),
    Hook("live.match_new", "tripmatch.live:match_live", segment_arg=0,
         count=_matched),
    Hook("live.match_old", "tripmatch.live:match_live_old", segment_arg=0,
         count=_matched),
    Hook("gtfs.load", "tripmatch.gtfs:load_gtfs", peak=True,
         count=_add("gtfs.stop_times", lambda a, r: len(r.stop_times))),
    Hook("planner.build", "tripmatch.planner:TimetablePlanner.__init__",
         peak=True),
    Hook("planner.plan", "tripmatch.planner:TimetablePlanner.plan",
         count=_count_plans),
    Hook("static.match", "tripmatch.static:match_static", segment_arg=0),
    Hook("static.filter_plan", "tripmatch.static:filter_plan", segment_arg=1,
         count=_add("static.accepted", lambda a, r: r.accepted)),
    Hook("static.route_check", "tripmatch.static:route_geometry_check",
         segment_arg=0),
)

NAME, START, END, PARENT, SEGMENT = range(5)


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.fired: Counter = Counter()
        self.first_calls: dict[str, tuple[Callable, tuple, dict]] = {}

    def wrap(self, hook: Hook, fn: Callable) -> Callable:
        spans, stack, perf = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if hook.segment_arg is not None:
                segment = args[hook.segment_arg].segment_id
            else:
                segment = spans[parent][SEGMENT] if parent >= 0 else None
            record = [hook.span, 0.0, 0.0, parent, segment]
            stack.append(len(spans))
            spans.append(record)
            if hook.peak:
                self.first_calls.setdefault(hook.span, (fn, args, kwargs))
            record[START] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = perf()
                stack.pop()
            self.fired[hook.target] += 1
            if hook.count is not None:
                hook.count(self.counters, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def total(self, span: str) -> float:
        return sum(s[END] - s[START] for s in self.spans if s[NAME] == span)

    def write_spans(self, path: Path) -> None:
        t0 = self.spans[0][START] if self.spans else 0.0
        rows = ["name,start_s,end_s,parent,segment_id"]
        rows += [f"{n},{s - t0:.6f},{e - t0:.6f},{p},{'' if g is None else g}"
                 for n, s, e, p, g in self.spans]
        Path(path).write_text("\n".join(rows) + "\n", encoding="utf-8")


def _resolve(target: str):
    """(owner, attribute, current value) for a hook target; HookError when
    any part of the name is gone."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise HookError(f"wrapped module {module_name} is missing") from exc
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            break
    if owner is None or attr not in vars(owner):
        raise HookError(f"wrapped name {target} is missing")
    return owner, attr, vars(owner)[attr]


def install(tracer: Tracer, hooks=HOOKS) -> list[tuple[object, str, object]]:
    """Wrap every hook target wherever tripmatch binds it; returns the
    patches for ``uninstall``."""
    resolved = [(hook, *_resolve(hook.target)) for hook in hooks]
    patches = []
    for hook, owner, attr, original in resolved:
        wrapped = tracer.wrap(hook, original)
        if isinstance(owner, type):
            patches.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            continue
        for name, module in list(sys.modules.items()):
            if name != "tripmatch" and not name.startswith("tripmatch."):
                continue
            for bound, value in list(vars(module).items()):
                if value is original:
                    patches.append((module, bound, original))
                    setattr(module, bound, wrapped)
    return patches


def uninstall(patches: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


def measure_peaks(tracer: Tracer) -> None:
    """Replay the first call of every peak hook under tracemalloc, after the
    run and outside its spans, and count the call's own peak allocation as
    <span>.rss_mb. In the run itself the call reuses memory that earlier
    stages freed, so the process's resident memory hardly grows."""
    for span, (fn, args, kwargs) in tracer.first_calls.items():
        if fn.__name__ == "__init__":  # construct a fresh instance
            args = (object.__new__(type(args[0])), *args[1:])
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tracer.counters[span + ".rss_mb"] = peak / 2**20


def check_fired(tracer: Tracer, hooks=HOOKS) -> None:
    silent = [h.target for h in hooks if not tracer.fired[h.target]]
    if silent:
        raise HookError(f"hooks never fired: {', '.join(silent)}")


def _durations(tracer: Tracer) -> dict[str, list[float]]:
    out: dict[str, list[float]] = defaultdict(list)
    for span in tracer.spans:
        out[span[NAME]].append(span[END] - span[START])
    return out


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_self_times(tracer: Tracer) -> list[float]:
    """Per span: its duration minus the time its descendants spent in other
    layers (same-layer children count as the span's own work)."""
    spans = tracer.spans
    foreign = [0.0] * len(spans)
    # children are recorded after their parents, so one reverse pass
    # folds every subtree into its root
    for i in range(len(spans) - 1, -1, -1):
        parent = spans[i][PARENT]
        if parent < 0:
            continue
        if _layer(spans[i][NAME]) == _layer(spans[parent][NAME]):
            foreign[parent] += foreign[i]
        else:
            foreign[parent] += spans[i][END] - spans[i][START]
    return [s[END] - s[START] - f for s, f in zip(spans, foreign)]


def layer_shares(tracer: Tracer, run_s: float) -> dict[str, float]:
    """Each layer's self time as a share of the traced run."""
    spans = tracer.spans
    totals: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, layer_self_times(tracer)):
        parent = span[PARENT]
        layer = _layer(span[NAME])
        if parent < 0 or _layer(spans[parent][NAME]) != layer:
            totals[layer] += own
    return {layer: t / run_s for layer, t in sorted(totals.items())}


def unit(metric: str) -> str:
    """The unit of a per-layer metric, read off its name."""
    if metric.endswith("rows_per_s"):
        return "rows/s"
    if metric.endswith((".s", "_s")):
        return "s"
    if ".ms." in metric:
        return "ms"
    if metric.endswith("rss_mb"):
        return "MB"
    if metric.endswith("ratio"):
        return "ratio"
    return "count"


def _pct(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced run (trace overhead excepted)."""
    d = _durations(tracer)
    c = tracer.counters
    total = {name: sum(v) for name, v in d.items()}
    calls = {name: len(v) for name, v in d.items()}
    self_times = layer_self_times(tracer)
    m: dict[str, float] = {
        "ingest.transit_live.s": total["ingest.transit_live"],
        "ingest.transit_live.rows_per_s":
            c["ingest.transit_live.rows"] / total["ingest.transit_live"],
        "live.index_build.s": total["live.index_build"],
        "live.vehicles": c["live.vehicles"],
    }
    for method in ("new", "old"):
        name = f"live.match_{method}"
        ms = [x * 1e3 for x in d[name]]
        m[f"{name}.s"] = total[name]
        m[f"{name}.ms.p50"] = _pct(ms, 50)
        m[f"{name}.ms.p90"] = _pct(ms, 90)
    plan_ms = [x * 1e3 for x in d["planner.plan"]]
    m.update({
        "live.vehicles_in_range.calls": calls["live.vehicles_in_range"],
        "live.vehicles_in_range.returned": c["live.vehicles_in_range.returned"],
        "live.score_vehicle.calls": calls["live.score_vehicle"],
        "live.sample_vehicle_pairs": c["live.sample_vehicle_pairs"],
        "live.useful_ratio": c["live.matched"] / calls["live.score_vehicle"],
        "gtfs.load.s": total["gtfs.load"],
        "gtfs.load.rss_mb": c["gtfs.load.rss_mb"],
        "gtfs.stop_times": c["gtfs.stop_times"],
        "planner.build.s": total["planner.build"],
        "planner.build.rss_mb": c["planner.build.rss_mb"],
        "planner.plan.s": total["planner.plan"],
        "planner.plan.ms.p50": _pct(plan_ms, 50),
        "planner.plan.ms.p90": _pct(plan_ms, 90),
        "planner.itineraries": c["planner.itineraries"],
        "planner.no_plan": c["planner.no_plan"],
        "static.match.self_s": sum(
            own for span, own in zip(tracer.spans, self_times)
            if span[NAME] == "static.match"),
        "static.filter_plan.calls": calls["static.filter_plan"],
        "static.route_check.calls": calls["static.route_check"],
        "static.accept_ratio":
            c["static.accepted"] / max(1, calls["static.filter_plan"]),
        "segmentation.s": total["segmentation.build"],
        "segmentation.segments": c["segmentation.segments"],
        "segmentation.vehicular": c["segmentation.vehicular"],
        "ingest.filtered.s": total["ingest.filtered"],
        "ingest.manual_log.s": total["ingest.manual_log"],
        "evaluation.s": total["evaluation.run"],
        "pipeline.write.s": total["pipeline.write"],
    })
    return m
