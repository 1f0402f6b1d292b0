from dataclasses import fields
from datetime import date
from pathlib import Path

import pytest
import yaml

from tripmatch.config import (
    ConfigError,
    DATA_DIR_ENV,
    RunConfig,
    config_from_dict,
    load_config,
)
from tripmatch.live import LiveMatchConfig
from tripmatch.static import MatchConstants


def test_defaults():
    cfg = RunConfig()
    assert cfg.date == date(2016, 8, 26)
    assert cfg.methods == ["new-live", "old-live", "static"]
    assert cfg.live.distance_limit_m == 100.0
    assert cfg.constants.total_delta_max_s == 1080.0


def test_load_config_resolves_relative_paths(tmp_path):
    (tmp_path / "cfg.yaml").write_text(yaml.safe_dump({
        "data_dir": "data",
        "gtfs": "feed.zip",
        "output_dir": "out",
        "date": "2016-08-26",
    }), encoding="utf-8")
    cfg = load_config(tmp_path / "cfg.yaml")
    assert cfg.data_dir == tmp_path / "data"
    assert cfg.gtfs == tmp_path / "feed.zip"
    assert cfg.output_dir == tmp_path / "out"
    assert cfg.path("device_data") == tmp_path / "data" / "device_data.csv"


def test_env_var_overrides_data_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path / "elsewhere"))
    cfg = config_from_dict({"data_dir": "data"}, base_dir=tmp_path)
    assert cfg.data_dir == tmp_path / "elsewhere"


def test_env_expansion_in_paths(tmp_path, monkeypatch):
    monkeypatch.setenv("MY_FEED", str(tmp_path / "hsl.zip"))
    cfg = config_from_dict({"gtfs": "${MY_FEED}"})
    assert cfg.gtfs == tmp_path / "hsl.zip"


def test_constants_overridable_but_validated():
    cfg = config_from_dict({"live": {"distance_limit_m": 150.0}})
    assert cfg.live.distance_limit_m == 150.0
    with pytest.raises(ConfigError):
        config_from_dict({"live": {"distance_limit_m": -1}})
    with pytest.raises(ConfigError, match="unknown key"):
        config_from_dict({"live": {"blur": 1}})


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="unknown top-level"):
        config_from_dict({"banana": 1})


def test_unknown_method_rejected():
    with pytest.raises(ConfigError, match="unknown method"):
        config_from_dict({"methods": ["telepathy"]})


def test_empty_method_list_rejected():
    with pytest.raises(ConfigError) as exc:
        config_from_dict({"methods": []})
    assert str(exc.value) == \
        "no method chosen; choose from ['new-live', 'old-live', 'static']"


def test_legacy_jobs_key_accepted_at_one():
    assert config_from_dict({"jobs": 1}) == config_from_dict({})
    assert "jobs" not in {f.name for f in fields(RunConfig)}


def test_gates_parse_and_check():
    cfg = config_from_dict({"gates": [
        {"method": "combined", "metric": "public_transport", "min": 42},
        {"method": "combined", "metric": "car_recognized", "max": 0},
    ]})
    assert len(cfg.gates) == 2
    assert cfg.gates[0].check(48.0)
    assert not cfg.gates[0].check(41.0)
    assert cfg.gates[1].check(0)
    assert not cfg.gates[1].check(1)


def test_missing_config_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "absent.yaml")


def test_require_path_reports_missing_file(tmp_path):
    cfg = config_from_dict({"data_dir": str(tmp_path)})
    with pytest.raises(ConfigError, match="device_data"):
        cfg.require_path("device_data")


def test_file_entry_can_be_disabled():
    cfg = config_from_dict({"files": {"trains_json": None}})
    assert cfg.path("trains_json") is None


@pytest.mark.parametrize("section, key", [
    ("segmentation", "max_gap"),
    ("planner", "search_window"),
    ("planner", "kind"),
])
def test_unknown_section_key_rejected(section, key):
    with pytest.raises(ConfigError, match=rf"{section}: unknown key\(s\) \['{key}'\]"):
        config_from_dict({section: {key: 10}})


def test_infinite_gap_is_accepted():
    # an infinite gap never cuts a segment; the pipeline runs with it
    assert config_from_dict({"segmentation": {"max_gap_s": float("inf")}}
                            ).max_gap_s == float("inf")


@pytest.mark.parametrize("section, key, value", [
    ("live", "window_s", 86400), ("static", "dEmax_m", 115_000.0)])
def test_slack_of_one_day_accepted(section, key, value):
    config_from_dict({section: {key: value}})


def test_section_keys_apply():
    cfg = config_from_dict({"segmentation": {"max_gap_s": 10},
                            "planner": {"search_window_s": 60}})
    assert cfg.max_gap_s == 10.0
    assert cfg.planner_search_window_s == 60.0


PUBLISHED = Path(__file__).parent.parent / "configs" / "published.yaml"
#: keys of limits that are derived from other keys, and so not settable
DERIVED_KEYS = [("static", key) for key in (
    "walk_before_max_s", "walk_after_max_s", "transit_extra_begin_max_s",
    "transit_extra_end_max_s", "transit_delta_max_s", "walk_delta_max_s",
    "total_delta_max_s", "start_diff_max_s")] + [("live", "bbox_margin_m")]


def test_published_config_shows_the_defaults():
    cfg = load_config(PUBLISHED)
    default = RunConfig()
    # paths resolve against the file's folder, and the file sets gates
    for f in fields(RunConfig):
        if f.name not in ("data_dir", "gtfs", "output_dir", "gates"):
            assert getattr(cfg, f.name) == getattr(default, f.name), f.name
    raw = yaml.safe_load(PUBLISHED.read_text(encoding="utf-8"))
    assert set(raw["live"]) == {f.name for f in fields(LiveMatchConfig)}
    assert set(raw["static"]) == {f.name for f in fields(MatchConstants)}


@pytest.mark.parametrize("section, key", DERIVED_KEYS)
def test_derived_key_is_unknown(section, key):
    raw = yaml.safe_load(PUBLISHED.read_text(encoding="utf-8"))
    raw[section][key] = 1
    with pytest.raises(ConfigError) as exc:
        config_from_dict(raw, base_dir=PUBLISHED.parent)
    assert str(exc.value) == f"{section}: unknown key(s) ['{key}']"


def test_matcher_sections_hold_only_independent_values():
    assert len(fields(MatchConstants)) == 8
    assert len(fields(LiveMatchConfig)) == 5


@pytest.mark.parametrize("key", ["max_user_samples", "old_live_samples"])
@pytest.mark.parametrize("value", [1, 2.5])
def test_live_sample_count_below_two_or_fractional_rejected(key, value):
    with pytest.raises(ConfigError) as exc:
        config_from_dict({"live": {key: value}})
    assert str(exc.value) == \
        f"live: {key} must be an integer >= 2, got {value!r}"


@pytest.mark.parametrize("key", ["max_user_samples", "old_live_samples"])
def test_live_sample_count_of_two_accepted(key):
    assert getattr(config_from_dict({"live": {key: 2}}).live, key) == 2


# Each case carries its own id label, so inserting a case renames no
# other; a new case takes the next unused label.
_BAD_VALUES = [
    ("raw0", {"methods": "static"},
     "methods: expected a list of method names, got 'static'"),
    ("raw1", {"jobs": "abc"}, "jobs: expected an integer, got 'abc'"),
    ("raw2", {"jobs": 1.5}, "jobs: expected an integer, got 1.5"),
    ("raw3", {"segmentation": {"max_gap_s": "x"}},
     "segmentation: max_gap_s: expected a number, got 'x'"),
    ("raw4", {"planner": {"search_window_s": "x"}},
     "planner: search_window_s: expected a number, got 'x'"),
    ("raw5", {"permissive": "no"}, "permissive: expected true or false, got 'no'"),
    ("raw6", {"date": "friday"}, "date: expected YYYY-MM-DD, got 'friday'"),
    ("raw7", {"segmentation": 300}, "segmentation: expected a mapping, got 300"),
    ("raw8", {"gates": 5}, "gates: expected a list of gates, got 5"),
    ("raw9", {"gates": [{"method": "combined", "metric": "public_transport", "min": "a"}]},
     "gates[0]: min: expected a number, got 'a'"),
    ("raw10", {"gates": [{"method": "static", "metric": "car_recognized", "max": 0},
                         {"method": "static", "metric": "car_recognized", "max": [1]}]},
     "gates[1]: max: expected a number, got [1]"),
    ("raw11", {"segmentation": {"max_gap_s": -5}},
     "segmentation: max_gap_s: must be >= 0, got -5"),
    ("raw12", {"planner": {"search_window_s": -1.0}},
     "planner: search_window_s: must be >= 0, got -1.0"),
    ("raw13", {"static": {"walk_speed_mps": 0}},
     "static: walk_speed_mps must be positive, got 0"),
    ("raw14", {"static": {"transit_speed_mps": 0}},
     "static: transit_speed_mps must be positive, got 0"),
    ("raw15", {"static": {"resample_spacing_m": 0}},
     "static: resample_spacing_m must be positive, got 0"),
    ("raw16", {"static": {"route_limit_m": -5}},
     "static: route_limit_m must be positive, got -5"),
    ("raw17", {"static": {"dEmax_m": -500.0}},
     "static: dEmax_m must be positive, got -500.0"),
    ("raw18", {"static": {"schedule_deviation_s": -1}},
     "static: schedule_deviation_s must be >= 0, got -1"),
    ("raw19", {"static": {"max_adjacent_outside": 2.5}},
     "static: max_adjacent_outside must be an integer >= 0, got 2.5"),
    ("raw20", {"static": {"max_adjacent_outside": -1}},
     "static: max_adjacent_outside must be an integer >= 0, got -1"),
    ("raw21", {"static": {"walk_speed_mps": True}},
     "static: walk_speed_mps must be a number, got True"),
    ("raw22", {"static": {"route_quorum": "high"}},
     "static: route_quorum must be a number, got 'high'"),
    ("raw23", {"static": {"route_quorum": 1.5}},
     "static: route_quorum must be in (0, 1], got 1.5"),
    ("raw24", {"live": {"distance_limit_m": -1}},
     "live: distance_limit_m must be positive, got -1"),
    ("raw25", {"live": {"window_s": 0}}, "live: window_s must be positive, got 0"),
    ("raw26", {"live": {"window_s": "x"}}, "live: window_s must be a number, got 'x'"),
    ("raw27", {"live": {"distance_limit_m": True}},
     "live: distance_limit_m must be a number, got True"),
    ("raw28", {"live": {"quorum_fraction": "most"}},
     "live: quorum_fraction must be a number, got 'most'"),
    ("raw29", {"live": {"quorum_fraction": False}},
     "live: quorum_fraction must be a number, got False"),
    ("raw30", {"live": {"quorum_fraction": 0}},
     "live: quorum_fraction must be in (0, 1], got 0"),
    ("raw31", {"live": {"distance_limit_m": float("nan")}},
     "live: distance_limit_m must be positive, got nan"),
    ("raw32", {"jobs": True}, "jobs: expected an integer, got True"),
    ("raw33", {"jobs": 2}, "jobs: matching runs serially; only 1 is accepted, got 2"),
    ("raw34", {"jobs": 0}, "jobs: matching runs serially; only 1 is accepted, got 0"),
    ("raw35", {"segmentation": {"max_gap_s": float("nan")}},
     "segmentation: max_gap_s: must be >= 0, got nan"),
    ("raw36", {"planner": {"search_window_s": float("nan")}},
     "planner: search_window_s: must be >= 0, got nan"),
    ("raw37", {"planner": {"search_window_s": float("inf")}},
     "planner: search_window_s: must be finite, got inf"),
    ("raw38", {"live": {"window_s": float("inf")}},
     "live: window_s must be finite, got inf"),
    ("raw39", {"live": {"window_s": 1.0e300}},
     "live: window_s must be at most 86400 s, got 1e+300"),
    ("raw40", {"static": {"dEmax_m": float("inf")}},
     "static: dEmax_m must be finite, got inf"),
    ("raw41", {"static": {"dEmax_m": 1.0e300}},
     "static: tWb = dEmax_m / walk_speed_mps must be at most 86400 s, "
     "got 7.462686567164179e+299"),
    ("raw42", {"static": {"walk_speed_mps": 1.0e-300}},
     "static: tWb = dEmax_m / walk_speed_mps must be at most 86400 s, "
     "got 5e+302"),
    ("raw43", {"gates": [{"method": "new-live", "metric": "public_transport",
                          "min": float("nan")}]},
     "gates[0]: min: must not be NaN"),
    ("raw44", {"gates": [{"method": "new-live", "metric": "public_transport",
                          "max": float("nan")}]},
     "gates[0]: max: must not be NaN"),
    ("raw45", {"live": {"distance_limit_m": float("inf")}},
     "live: distance_limit_m must be finite, got inf"),
    ("raw46", {"static": {"schedule_deviation_s": float("inf")}},
     "static: schedule_deviation_s must be finite, got inf"),
]


@pytest.mark.parametrize("raw, message", [case[1:] for case in _BAD_VALUES],
                         ids=[f"{label}-{message}"
                              for label, _, message in _BAD_VALUES])
def test_bad_value_names_its_key(raw, message):
    with pytest.raises(ConfigError) as exc:
        config_from_dict(raw)
    assert str(exc.value) == message
