"""Run configuration: one YAML file, env-var overrides for paths, and every
matching constant surfaced with its default."""
from __future__ import annotations

import os
from dataclasses import dataclass, field, fields
from datetime import date, datetime
from pathlib import Path
from typing import Any, Optional

import yaml

from .evaluation import COMBINED, GATE_METRICS
from .live import LiveMatchConfig, NEW_LIVE, OLD_LIVE
from .planner import check_search_window
from .segmentation import DEFAULT_MAX_GAP_S, check_max_gap
from .static import MatchConstants
from .types import check_number

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

    def __post_init__(self) -> None:
        for bound in ("min", "max"):
            if (value := getattr(self, bound)) is not None:
                setattr(self, bound,
                        float(check_number(bound, value, finite=False)))

    def check(self, value: float) -> bool:
        return ((self.min is None or value >= self.min)
                and (self.max is None or value <= self.max))


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
        computed = [*self.methods, COMBINED]
        for i, gate in enumerate(self.gates):
            if gate.method not in computed:
                raise ConfigError(f"gates[{i}]: method {gate.method!r} is not "
                                  f"computed by this run; choose from {computed}")
            if str(gate.metric).lower() not in GATE_METRICS:
                raise ConfigError(f"gates[{i}]: unknown metric {gate.metric!r}; "
                                  f"choose from {list(GATE_METRICS)}")


def _expand(text: str) -> str:
    return os.path.expanduser(os.path.expandvars(text))


def _check_keys(data: dict[str, Any], known, context: str) -> None:
    if not isinstance(data, dict):
        raise ConfigError(f"{context}: expected a mapping, got {data!r}")
    unknown = set(data) - set(known)
    if unknown:
        raise ConfigError(f"{context}: unknown key(s) {sorted(unknown)}")


def _checked(context: str, check, *args, **kwargs):
    """check(*args, **kwargs); its TypeError or ValueError is a ConfigError
    under context, if any."""
    try:
        return check(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{context}: {exc}" if context else str(exc)) from exc


def _sub_config(cls, data: dict[str, Any], context: str):
    _check_keys(data, {f.name for f in fields(cls)}, context)
    return _checked(context, cls, **data)


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
        _checked("", check_number, "jobs", raw.pop("jobs"), integer=True,
                 at_least=1, at_most=1)
    if "permissive" in raw:
        cfg.permissive = raw.pop("permissive")
        if not isinstance(cfg.permissive, bool):
            raise ConfigError(f"permissive: expected true or false, "
                              f"got {cfg.permissive!r}")
    if "segmentation" in raw:
        seg = raw.pop("segmentation") or {}
        _check_keys(seg, {"max_gap_s"}, "segmentation")
        cfg.max_gap_s = float(_checked("segmentation", check_max_gap,
                                       seg.get("max_gap_s", cfg.max_gap_s)))
    if "live" in raw:
        cfg.live = _sub_config(LiveMatchConfig, raw.pop("live") or {}, "live")
    if "static" in raw:
        cfg.constants = _sub_config(MatchConstants, raw.pop("static") or {}, "static")
    if "planner" in raw:
        planner = raw.pop("planner") or {}
        _check_keys(planner, {"search_window_s"}, "planner")
        cfg.planner_search_window_s = float(_checked(
            "planner", check_search_window,
            planner.get("search_window_s", cfg.planner_search_window_s)))
    if "gates" in raw:
        gates = raw.pop("gates") or []
        if not isinstance(gates, list):
            raise ConfigError(f"gates: expected a list of gates, got {gates!r}")
        cfg.gates = [_sub_config(Gate, g, f"gates[{i}]")
                     for i, g in enumerate(gates)]
    if raw:
        raise ConfigError(f"unknown top-level config key(s) {sorted(raw)}")
    cfg.validate()
    return cfg


def _read_mapping(p: Path) -> dict[str, Any]:
    """The top-level mapping of the YAML file p. Each value is constructed
    from its own node, so that a value YAML cannot construct, such as the
    date 2016-13-01, is refused at its key and line."""
    with open(p, encoding="utf-8") as fh:
        loader = yaml.SafeLoader(fh)
        try:
            node = loader.get_single_node()
            if node is None:
                return {}
            if not isinstance(node, yaml.MappingNode):
                raise ConfigError("config must be a mapping")
            loader.flatten_mapping(node)
            raw: dict[str, Any] = {}
            for key, value in node.value:
                try:
                    raw.update(loader.construct_mapping(
                        yaml.MappingNode(node.tag, [(key, value)]), deep=True))
                except ValueError as exc:
                    mark = value.start_mark
                    raise ConfigError(f"line {mark.line + 1}, column "
                                      f"{mark.column + 1}: {key.value}: {exc}"
                                      ) from None
            return raw
        finally:
            loader.dispose()


def load_config(path) -> RunConfig:
    """The RunConfig of the YAML file path; every refusal names the file."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        return config_from_dict(_read_mapping(p), base_dir=p.parent)
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark
        raise ConfigError(f"{p}: line {mark.line + 1}, column "
                          f"{mark.column + 1}: {exc.problem}") from None
    except (yaml.YAMLError, UnicodeDecodeError, ConfigError) as exc:
        raise ConfigError(f"{p}: {exc}") from None
