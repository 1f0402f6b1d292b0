import hashlib
import shutil
from pathlib import Path

import pytest
import yaml

from tripmatch.cli import main


def run_cli(*args):
    return main([str(a) for a in args])


def out_dir_of(config_path) -> Path:
    raw = yaml.safe_load(Path(config_path).read_text())
    return Path(raw["output_dir"])


def test_ingest_reports_counts(synth, capsys):
    assert run_cli("ingest", "--config", synth.config_path) == 0
    out = capsys.readouterr().out
    assert "device_data:" in out
    assert "transit_live:" in out
    assert "manual_log: 11 rows" in out
    assert "gtfs_trips:" in out
    assert "train_records: 3" in out


def test_ingest_missing_file_exits_1(tmp_path, synth, capsys):
    cfg = tmp_path / "broken.yaml"
    cfg.write_text(yaml.safe_dump({
        "data_dir": str(tmp_path / "void"),
    }), encoding="utf-8")
    assert run_cli("ingest", "--config", cfg) == 1
    assert "device_data" in capsys.readouterr().err


def test_permissive_flag_downgrades_bad_row(tmp_path, synth, capsys):
    data_dir = tmp_path / "data"
    shutil.copytree(synth.root, data_dir,
                    ignore=shutil.ignore_patterns("out", "gtfs", "*.yaml",
                                                  "truth.json"))
    target = data_dir / "device_data.csv"
    lines = target.read_text().splitlines()
    lines.insert(2, "2016-08-26 09:00:01,1,60.17,,20,STILL,90,,,,")
    target.write_text("\n".join(lines) + "\n")
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump({
        "data_dir": str(data_dir),
        "gtfs": str(synth.root / "gtfs"),
        "output_dir": str(tmp_path / "out"),
        "date": "2016-08-26",
    }), encoding="utf-8")
    assert run_cli("ingest", "--config", cfg) == 1  # strict by default
    assert run_cli("ingest", "--config", cfg, "--permissive") == 0
    out = capsys.readouterr().out
    assert "note: skipped row" in out


def test_run_with_bad_gtfs_column_exits_1(tmp_path, synth, capsys):
    gtfs_dir = tmp_path / "gtfs"
    shutil.copytree(synth.root / "gtfs", gtfs_dir)
    stops = gtfs_dir / "stops.txt"
    stops.write_text(stops.read_text().replace("stop_lat", "latitude", 1))
    cfg = tmp_path / "cfg.yaml"
    raw = yaml.safe_load(Path(synth.config_path).read_text())
    raw.update(data_dir=str(synth.root), gtfs=str(gtfs_dir),
               output_dir=str(tmp_path / "out"))
    cfg.write_text(yaml.safe_dump(raw), encoding="utf-8")
    assert run_cli("run", "--config", cfg) == 1
    assert "stops.txt: missing column 'stop_lat'" in capsys.readouterr().err


def test_segment_command_writes_csv(synth, capsys, tmp_path):
    out = tmp_path / "segout"
    assert run_cli("segment", "--config", synth.config_path, "--out", out) == 0
    assert (out / "segments.csv").exists()
    assert "vehicular candidates" in capsys.readouterr().out


def test_full_run_is_deterministic(synth, tmp_path):
    def run_and_hash(out):
        assert run_cli("run", "--config", synth.config_path, "--out", out) == 0
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(Path(out).iterdir())}

    first = run_and_hash(tmp_path / "run1")
    second = run_and_hash(tmp_path / "run2")
    assert first == second
    assert "report.txt" in first
    assert "matches_new_live.csv" in first
    assert "matches_static.csv" in first


def test_stagewise_equals_run(synth, tmp_path, capsys):
    out = tmp_path / "staged"
    assert run_cli("segment", "--config", synth.config_path, "--out", out) == 0
    assert run_cli("match-live", "--config", synth.config_path, "--out", out) == 0
    assert run_cli("match-static", "--config", synth.config_path,
                   "--out", out) == 0
    assert run_cli("evaluate", "--config", synth.config_path, "--out", out) == 0
    whole = tmp_path / "whole"
    assert run_cli("run", "--config", synth.config_path, "--out", whole) == 0
    names = sorted(p.name for p in whole.iterdir())
    assert len(names) == 8
    assert sorted(p.name for p in out.iterdir()) == names
    for name in names:
        assert (out / name).read_bytes() == (whole / name).read_bytes(), name


def test_evaluate_equals_run_for_any_method_order(synth, tmp_path):
    out = tmp_path / "reordered"
    methods = ("--methods", "static,new-live")
    assert run_cli("run", "--config", synth.config_path, "--out", out,
                   *methods) == 0
    written = {p.name: p.read_bytes() for p in out.iterdir()}
    assert run_cli("evaluate", "--config", synth.config_path, "--out", out,
                   *methods) == 0
    assert {p.name: p.read_bytes() for p in out.iterdir()} == written


def test_evaluate_without_stage_outputs_exits_1(synth, tmp_path, capsys):
    assert run_cli("evaluate", "--config", synth.config_path,
                   "--out", tmp_path / "empty") == 1
    assert "missing stage output" in capsys.readouterr().err


def test_evaluate_reads_segments_of_the_matching_run(synth, tmp_path, capsys):
    out = tmp_path / "staged"
    assert run_cli("run", "--config", synth.config_path, "--out", out) == 0
    report = (out / "report.txt").read_bytes()
    # a config that would cut other segments cannot change what the saved
    # segments.csv and match tables say
    cfg_raw = yaml.safe_load(Path(synth.config_path).read_text())
    cfg_raw["segmentation"] = {"max_gap_s": 5}
    regapped = tmp_path / "regapped.yaml"
    regapped.write_text(yaml.safe_dump(cfg_raw), encoding="utf-8")
    assert run_cli("evaluate", "--config", regapped, "--out", out) == 0
    assert (out / "report.txt").read_bytes() == report
    (out / "segments.csv").unlink()
    capsys.readouterr()
    assert run_cli("evaluate", "--config", synth.config_path, "--out", out) == 1
    err = capsys.readouterr().err
    assert "missing stage output" in err and "segments.csv" in err


def test_evaluate_with_bad_match_table_exits_1(synth, tmp_path, capsys):
    out = tmp_path / "staged"
    assert run_cli("run", "--config", synth.config_path, "--out", out) == 0
    matches = out / "matches_static.csv"
    header, first, *rest = matches.read_text().splitlines()
    matches.write_text("\n".join([header.replace("recd_type", "kind"), first,
                                  *rest]) + "\n")
    capsys.readouterr()
    assert run_cli("evaluate", "--config", synth.config_path, "--out", out) == 1
    assert capsys.readouterr().err.startswith(
        f"error: {matches}: missing required column(s) ['recd_type']")
    cells = first.split(",")
    cells[header.split(",").index("recd_type")] = "ZEPPELIN"
    matches.write_text("\n".join([header, ",".join(cells), *rest]) + "\n")
    assert run_cli("evaluate", "--config", synth.config_path, "--out", out) == 1
    assert capsys.readouterr().err == (
        f"error: {matches}: line 2: column 'recd_type': 'ZEPPELIN' is not a "
        "valid LineType\n")


def test_evaluate_with_a_point_missing_from_the_filtered_table_exits_1(
        synth, tmp_path, capsys):
    out = tmp_path / "staged"
    assert run_cli("run", "--config", synth.config_path, "--out", out) == 0
    data_dir = tmp_path / "data"
    shutil.copytree(synth.root, data_dir,
                    ignore=shutil.ignore_patterns("out", "gtfs", "*.yaml",
                                                  "truth.json"))
    filtered = data_dir / "device_data_filtered.csv"
    header, *rows = filtered.read_text().splitlines()
    del rows[len(rows) // 2]
    filtered.write_text("\n".join([header, *rows]) + "\n")
    raw = yaml.safe_load(Path(synth.config_path).read_text())
    raw.update(data_dir=str(data_dir), gtfs=str(synth.root / "gtfs"))
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(raw), encoding="utf-8")
    capsys.readouterr()
    assert run_cli("evaluate", "--config", cfg, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out / 'segments.csv'}: line ")
    assert "reconstructed" in err and "filtered table does not match" in err


def test_evaluate_reloads_segments_that_share_a_timestamp(synth, tmp_path,
                                                          capsys):
    # one device repeats a timestamp with alternating activity, so each
    # segment's closed time range also holds points of its neighbours
    data_dir = tmp_path / "data"
    shutil.copytree(synth.root, data_dir,
                    ignore=shutil.ignore_patterns("out", "gtfs", "*.yaml",
                                                  "truth.json"))
    (data_dir / "device_data_filtered.csv").write_text("\n".join([
        "time,device_id,lat,lng,activity",
        "2016-08-26 09:00:00,1,60.17,24.94,WALKING",
        "2016-08-26 09:00:10,1,60.1701,24.94,WALKING",
        "2016-08-26 09:00:10,1,60.1702,24.94,IN_VEHICLE",
        "2016-08-26 09:00:10,1,60.1703,24.94,WALKING",
        "2016-08-26 09:00:30,1,60.1704,24.94,WALKING"]) + "\n")
    raw = yaml.safe_load(Path(synth.config_path).read_text())
    raw.update(data_dir=str(data_dir), gtfs=str(synth.root / "gtfs"),
               output_dir=str(tmp_path / "out"))
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(raw), encoding="utf-8")
    assert run_cli("segment", "--config", cfg) == 0
    assert (tmp_path / "out" / "segments.csv").read_text().splitlines()[1:] == [
        "1,1,WALKING,2016-08-26 09:00:00,2016-08-26 09:00:10,2",
        "2,1,IN_VEHICLE,2016-08-26 09:00:10,2016-08-26 09:00:10,1",
        "3,1,WALKING,2016-08-26 09:00:10,2016-08-26 09:00:30,2"]
    assert run_cli("run", "--config", cfg) == 0
    report = (tmp_path / "out" / "report.txt").read_bytes()
    capsys.readouterr()
    assert run_cli("evaluate", "--config", cfg) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "out" / "report.txt").read_bytes() == report


@pytest.mark.parametrize("command", ["run", "match-live", "match-static"])
def test_jobs_flag_is_not_an_option(synth, tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        run_cli(command, "--config", synth.config_path,
                "--out", tmp_path / "out", "--jobs", 1)
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("methods", [",", ""])
def test_empty_methods_flag_exits_1(synth, tmp_path, capsys, methods):
    assert run_cli("run", "--config", synth.config_path,
                   "--out", tmp_path / "out", "--methods", methods) == 1
    assert capsys.readouterr().err == \
        "error: no method chosen; choose from ['new-live', 'old-live', 'static']\n"
    assert not (tmp_path / "out").exists()


def test_methods_flag_limits_columns(synth, tmp_path, capsys):
    out = tmp_path / "newonly"
    assert run_cli("run", "--config", synth.config_path, "--out", out,
                   "--methods", "new-live") == 0
    text = capsys.readouterr().out
    assert "New live" in text
    assert "Old live" not in text
    assert not (out / "matches_old_live.csv").exists()


def test_gate_failure_exits_2(synth, tmp_path, capsys):
    cfg_raw = yaml.safe_load(Path(synth.config_path).read_text())
    cfg_raw["output_dir"] = str(tmp_path / "gated")
    cfg_raw["gates"] = [{"method": "combined", "metric": "public_transport",
                         "min": 10_000}]
    gated = tmp_path / "gated.yaml"
    gated.write_text(yaml.safe_dump(cfg_raw), encoding="utf-8")
    assert run_cli("run", "--config", gated) == 2
    assert "GATE FAILED" in capsys.readouterr().err


def test_passing_gates_exit_0(synth, tmp_path):
    cfg_raw = yaml.safe_load(Path(synth.config_path).read_text())
    cfg_raw["output_dir"] = str(tmp_path / "gated-ok")
    cfg_raw["gates"] = [
        {"method": "combined", "metric": "public_transport", "min": 8},
        {"method": "combined", "metric": "car_recognized", "max": 0},
    ]
    gated = tmp_path / "gated.yaml"
    gated.write_text(yaml.safe_dump(cfg_raw), encoding="utf-8")
    assert run_cli("run", "--config", gated) == 0


def test_inspect_segment_prints_candidates(synth, capsys):
    assert run_cli("inspect-segment", "--config", synth.config_path, 1) == 0
    out = capsys.readouterr().out
    assert "segment 1" in out
    assert "candidate vehicles" in out
    assert "per-sample distances" in out
    assert "planner itineraries" in out


def test_inspect_walking_segment_notes_not_candidate(synth, capsys):
    assert run_cli("inspect-segment", "--config", synth.config_path, 2) == 0
    assert "not a vehicular candidate" in capsys.readouterr().out


def test_inspect_unknown_id_lists_range(synth, capsys):
    assert run_cli("inspect-segment", "--config", synth.config_path, 0) == 1
    err = capsys.readouterr().err
    assert "unknown segment id 0" in err
    assert "valid ids are 1.." in err


def test_bad_config_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("methods: [warp]\n", encoding="utf-8")
    assert run_cli("ingest", "--config", bad) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("count", [1, 2.5, 2])
def test_run_checks_old_live_sample_count(synth, tmp_path, capsys, count):
    cfg_raw = yaml.safe_load(Path(synth.config_path).read_text())
    cfg_raw["output_dir"] = str(tmp_path / "out")
    cfg_raw["live"] = {"old_live_samples": count}
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(cfg_raw), encoding="utf-8")
    if count == 2:
        assert run_cli("run", "--config", cfg) == 0
        assert (tmp_path / "out" / "matches_old_live.csv").exists()
    else:
        assert run_cli("run", "--config", cfg) == 1
        assert capsys.readouterr().err == (
            f"error: live: old_live_samples must be an integer >= 2, "
            f"got {count!r}\n")
