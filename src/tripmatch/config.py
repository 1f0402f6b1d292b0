"""Run configuration: one YAML file, env-var overrides for paths, and every
matching constant surfaced with its default."""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields
from datetime import date, datetime
from pathlib import Path
from typing import Any, Optional

import yaml

from .live import LiveMatchConfig, NEW_LIVE, OLD_LIVE
from .segmentation import DEFAULT_MAX_GAP_S
from .static import MatchConstants

STATIC = "static"
ALL_METHODS = (NEW_LIVE, OLD_LIVE, STATIC)

DATA_DIR_ENV = "TRIPMATCH_DATA_DIR"

DEFAULT_FILES = {
    "device_data": "device_data.csv",
    "filtered_data": "device_data_filtered.csv",
    "transit_live": "transit_live.csv",
    "manual_log": "manual_log.csv",
    "device_models": "device_models.csv",
    "trains_json": "commuterTrains.json",
}


class ConfigError(Exception):
    pass


@dataclass
class Gate:
    """Acceptance threshold for CI gating: method + metric with min/max."""

    method: str
    metric: str
    min: Optional[float] = None
    max: Optional[float] = None

    def check(self, value: float) -> bool:
        if self.min is not None and value < self.min:
            return False
        if self.max is not None and value > self.max:
            return False
        return True


@dataclass
class RunConfig:
    data_dir: Path = Path("data")
    files: dict[str, str] = field(default_factory=lambda: dict(DEFAULT_FILES))
    gtfs: Optional[Path] = None
    date: date = date(2016, 8, 26)
    output_dir: Path = Path("out")
    methods: list[str] = field(default_factory=lambda: list(ALL_METHODS))
    permissive: bool = False
    max_gap_s: float = DEFAULT_MAX_GAP_S
    live: LiveMatchConfig = field(default_factory=LiveMatchConfig)
    constants: MatchConstants = field(default_factory=MatchConstants)
    planner_search_window_s: float = 7200.0
    gates: list[Gate] = field(default_factory=list)

    def path(self, name: str) -> Optional[Path]:
        """Resolve a dataset file path; absolute entries bypass data_dir."""
        entry = self.files.get(name)
        if not entry:
            return None
        p = Path(_expand(entry))
        return p if p.is_absolute() else self.data_dir / p

    def require_path(self, name: str) -> Path:
        p = self.path(name)
        if p is None:
            raise ConfigError(f"no path configured for {name!r}")
        if not p.exists():
            raise ConfigError(f"{name} file not found: {p}")
        return p

    def require_gtfs(self) -> Path:
        if self.gtfs is None:
            raise ConfigError("no GTFS feed configured (key: gtfs)")
        if not self.gtfs.exists():
            raise ConfigError(f"GTFS feed not found: {self.gtfs}")
        return self.gtfs

    def validate(self) -> None:
        if not self.methods:
            raise ConfigError(f"no method chosen; choose from {list(ALL_METHODS)}")
        unknown = [m for m in self.methods if m not in ALL_METHODS]
        if unknown:
            raise ConfigError(f"unknown method(s) {unknown}; "
                              f"choose from {list(ALL_METHODS)}")


def _expand(text: str) -> str:
    return os.path.expanduser(os.path.expandvars(text))


def _check_keys(data: dict[str, Any], known, context: str) -> None:
    if not isinstance(data, dict):
        raise ConfigError(f"{context}: expected a mapping, got {data!r}")
    unknown = set(data) - set(known)
    if unknown:
        raise ConfigError(f"{context}: unknown key(s) {sorted(unknown)}")


def _sub_config(cls, data: dict[str, Any], context: str):
    _check_keys(data, {f.name for f in fields(cls)}, context)
    try:
        return cls(**data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def _number(value: Any, kind: type, context: str):
    """value as kind (int or float); booleans, and fractions for an int,
    are refused."""
    if not isinstance(value, bool) and not (kind is int and isinstance(value, float)):
        try:
            return kind(value)
        except (TypeError, ValueError):
            pass
    noun = "an integer" if kind is int else "a number"
    raise ConfigError(f"{context}: expected {noun}, got {value!r}")


def _non_negative(value: Any, context: str, *, finite: bool) -> float:
    number = _number(value, float, context)
    if not number >= 0:  # NaN included
        raise ConfigError(f"{context}: must be >= 0, got {value!r}")
    if finite and math.isinf(number):
        raise ConfigError(f"{context}: must be finite, got {value!r}")
    return number


def _gate(data: dict[str, Any], context: str) -> Gate:
    gate = _sub_config(Gate, data, context)
    for bound in ("min", "max"):
        value = getattr(gate, bound)
        if value is not None:
            number = _number(value, float, f"{context}: {bound}")
            if math.isnan(number):
                raise ConfigError(f"{context}: {bound}: must not be NaN")
            setattr(gate, bound, number)
    return gate


def config_from_dict(raw: dict[str, Any], base_dir: Path | None = None) -> RunConfig:
    raw = dict(raw or {})
    cfg = RunConfig()

    def resolve_dir(value: str) -> Path:
        p = Path(_expand(value))
        if base_dir is not None and not p.is_absolute():
            p = base_dir / p
        return p

    env_data_dir = os.environ.get(DATA_DIR_ENV)
    if env_data_dir:
        cfg.data_dir = Path(_expand(env_data_dir))
    elif "data_dir" in raw:
        cfg.data_dir = resolve_dir(str(raw.pop("data_dir")))
    raw.pop("data_dir", None)

    if "files" in raw:
        entries = raw.pop("files") or {}
        _check_keys(entries, DEFAULT_FILES, "files")
        cfg.files.update({k: str(v) for k, v in entries.items() if v})
        for key, value in entries.items():
            if value in (None, ""):
                cfg.files.pop(key, None)
    if "gtfs" in raw:
        value = raw.pop("gtfs")
        cfg.gtfs = resolve_dir(str(value)) if value else None
    if "date" in raw:
        value = raw.pop("date")
        try:
            cfg.date = value if isinstance(value, date) else \
                datetime.strptime(str(value), "%Y-%m-%d").date()
        except ValueError:
            raise ConfigError(f"date: expected YYYY-MM-DD, got {value!r}") from None
    if "output_dir" in raw:
        cfg.output_dir = resolve_dir(str(raw.pop("output_dir")))
    if "methods" in raw:
        methods = raw.pop("methods")
        if not isinstance(methods, list):
            raise ConfigError(f"methods: expected a list of method names, "
                              f"got {methods!r}")
        cfg.methods = [str(m) for m in methods]
    if "jobs" in raw:
        # Matching runs serially. The key is still accepted at its one
        # value because the benchmark's generated configs set it.
        jobs = _number(raw.pop("jobs"), int, "jobs")
        if jobs != 1:
            raise ConfigError(f"jobs: matching runs serially; only 1 is "
                              f"accepted, got {jobs}")
    if "permissive" in raw:
        cfg.permissive = raw.pop("permissive")
        if not isinstance(cfg.permissive, bool):
            raise ConfigError(f"permissive: expected true or false, "
                              f"got {cfg.permissive!r}")
    if "segmentation" in raw:
        seg = raw.pop("segmentation") or {}
        _check_keys(seg, {"max_gap_s"}, "segmentation")
        # an infinite gap is allowed: it never cuts a segment
        cfg.max_gap_s = _non_negative(seg.get("max_gap_s", cfg.max_gap_s),
                                      "segmentation: max_gap_s", finite=False)
    if "live" in raw:
        cfg.live = _sub_config(LiveMatchConfig, raw.pop("live") or {}, "live")
    if "static" in raw:
        cfg.constants = _sub_config(MatchConstants, raw.pop("static") or {}, "static")
    if "planner" in raw:
        planner = raw.pop("planner") or {}
        _check_keys(planner, {"search_window_s"}, "planner")
        cfg.planner_search_window_s = _non_negative(
            planner.get("search_window_s", cfg.planner_search_window_s),
            "planner: search_window_s", finite=True)
    if "gates" in raw:
        gates = raw.pop("gates") or []
        if not isinstance(gates, list):
            raise ConfigError(f"gates: expected a list of gates, got {gates!r}")
        cfg.gates = [_gate(g, f"gates[{i}]") for i, g in enumerate(gates)]
    if raw:
        raise ConfigError(f"unknown top-level config key(s) {sorted(raw)}")
    cfg.validate()
    return cfg


def load_config(path) -> RunConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    with open(p, encoding="utf-8") as fh:
        raw = yaml.safe_load(fh)
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{p}: config must be a mapping")
    return config_from_dict(raw, base_dir=p.parent)
