import csv
import hashlib
import shutil
from pathlib import Path

import pytest
import yaml

from tripmatch import pipeline, segmentation
from tripmatch.cli import main
from tripmatch.config import STATIC, load_config


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


def _respell_stops_header(data_dir):
    stops = data_dir / "gtfs" / "stops.txt"
    stops.write_text(stops.read_text().replace("stop_lat", "stop_latx", 1))
    return "stops.txt: missing column 'stop_lat'"


def _bad_fleet_cell(data_dir):
    live = data_dir / "transit_live.csv"
    lines = live.read_text().splitlines(keepends=True)
    time, _, rest = lines[2].split(",", 2)
    lines[2] = f"{time},60.1x,{rest}"
    live.write_text("".join(lines))
    return "line 3"


@pytest.mark.parametrize("respell", [_respell_stops_header, _bad_fleet_cell])
def test_a_run_stopped_by_a_bad_input_leaves_the_earlier_outputs(
        tmp_path, synth, capsys, respell):
    """An input that is found but does not parse stops the run after some
    stages ran. The earlier run's outputs stay as they were (each is marked
    first, as a rerun would write the same bytes), no file is added to that
    directory, and a new directory that the run made is removed."""
    data_dir = tmp_path / "data"
    shutil.copytree(synth.root, data_dir, ignore=shutil.ignore_patterns("out"))
    raw = yaml.safe_load(Path(synth.config_path).read_text())
    raw.update(data_dir=str(data_dir), gtfs=str(data_dir / "gtfs"),
               output_dir=str(tmp_path / "out"))
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(raw), encoding="utf-8")
    assert run_cli("run", "--config", cfg) == 0
    outputs = sorted((tmp_path / "out").iterdir())
    assert len(outputs) == 8
    for path in outputs:
        path.write_bytes(path.read_bytes() + b"earlier run")
    before = {p.name: p.read_bytes() for p in outputs}
    message = respell(data_dir)
    for out in (tmp_path / "out", tmp_path / "new-out"):
        capsys.readouterr()
        assert run_cli("run", "--config", cfg, "--out", out) == 1
        first = capsys.readouterr().err.splitlines()[0]
        assert first.startswith("error: ") and message in first
    assert {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()} == before
    assert not (tmp_path / "new-out").exists()


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


def test_evaluate_joins_a_match_row_only_to_the_segment_it_names(
        synth, tmp_path, capsys):
    """A match row whose id names another segment of segments.csv, or none,
    is refused at its line: its device, times and activity are those of the
    segment that the matching stage cut, which need not be the saved one."""
    out = tmp_path / "staged"
    assert run_cli("run", "--config", synth.config_path, "--out", out) == 0
    with open(out / "segments.csv", newline="", encoding="utf-8") as fh:
        saved = list(csv.DictReader(fh))
    matches = out / "matches_new_live.csv"
    with open(matches, newline="", encoding="utf-8") as fh:
        header, first, *rest = csv.reader(fh)
    at = header.index("segment_id")
    other = next(row["id"] for row in saved if row["activity"] == "WALKING")
    for segment_id, problem in (
            (other, f"segment {other} is not the segment of that id in "
                    "segments.csv"),
            ("99999", "segment 99999 is not in segments.csv")):
        cells = list(first)
        cells[at] = segment_id
        with open(matches, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([header, cells, *rest])
        capsys.readouterr()
        assert run_cli("evaluate", "--config", synth.config_path,
                       "--out", out) == 1
        assert capsys.readouterr().err == f"error: {matches}: line 2: {problem}\n"


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


def test_inspect_segment_inspects_only_the_configured_methods(
        synth, tmp_path, capsys):
    # without a live method the fleet feed is neither needed nor read
    cfg_raw = yaml.safe_load(Path(synth.config_path).read_text())
    cfg_raw.update(output_dir=str(tmp_path / "out"), methods=["static"])
    cfg_raw.setdefault("files", {})["transit_live"] = "missing.csv"
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(cfg_raw), encoding="utf-8")
    assert run_cli("run", "--config", cfg) == 0
    capsys.readouterr()
    assert run_cli("inspect-segment", "--config", cfg, 1) == 0
    out = capsys.readouterr().out
    assert "candidate vehicles" not in out
    assert "planner itineraries" in out


def test_inspect_segment_refuses_a_missing_gtfs_feed_as_run_does(
        synth, tmp_path, capsys):
    missing = tmp_path / "missing-gtfs"
    cfg_raw = yaml.safe_load(Path(synth.config_path).read_text())
    cfg_raw.update(output_dir=str(tmp_path / "out"), gtfs=str(missing))
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(cfg_raw), encoding="utf-8")
    refusal = f"error: GTFS feed not found: {missing}\n"
    assert run_cli("run", "--config", cfg) == 1
    assert capsys.readouterr().err == refusal
    assert not (tmp_path / "out" / "segments.csv").exists()
    assert run_cli("inspect-segment", "--config", cfg, 1) == 1
    assert capsys.readouterr().err == refusal


def test_inspect_segment_marks_the_match_of_the_run(synth, tmp_path, capsys):
    """Every vehicular candidate's inspection names, per configured method,
    the match that run wrote to the method's table, or none."""
    out = tmp_path / "out"
    assert run_cli("run", "--config", synth.config_path, "--out", out) == 0
    cfg = load_config(synth.config_path)
    methods = pipeline.live_methods(cfg) + [STATIC]
    assert sorted(methods) == sorted(cfg.methods)
    written = {}
    for method in methods:
        with open(out / pipeline.MATCH_FILES[method], newline="",
                  encoding="utf-8") as fh:
            written[method] = {int(row["segment_id"]): row
                               for row in csv.DictReader(fh)}
    candidates = segmentation.vehicular_candidates(pipeline.build_segments(cfg))
    for segment in candidates:
        want = []
        for method in methods:
            row = written[method].get(segment.segment_id)
            trip = "trip " if method == STATIC else ""
            want.append("match: none" if row is None else
                        f"match: {trip}{row['reference']} {row['recd_type']} "
                        f"{row['recd_name']}")
        capsys.readouterr()
        assert run_cli("inspect-segment", "--config", synth.config_path,
                       segment.segment_id) == 0
        marks = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("match: ")]
        assert marks == want, segment.segment_id
    assert any(written[m] for m in methods)
    assert any(s.segment_id not in written[m] for m in methods
               for s in candidates)


def _per_method_blocks(out: str) -> list[tuple[str, int, list[int]]]:
    """Each live block's (method, sample count, length of each candidate's
    per-sample distance list)."""
    blocks = []
    for line in out.splitlines():
        if "user samples for matching" in line:
            method, rest = line.split(": ", 1)
            blocks.append((method, int(rest.split()[0]), []))
        elif "per-sample distances" in line:
            blocks[-1][2].append(len(line.split(": ", 1)[1].split(", ")))
    return blocks


@pytest.mark.parametrize("methods", [["old-live"], ["old-live", "new-live"],
                                     ["new-live", "static"]])
def test_inspect_segment_shows_each_live_method_as_it_matches(
        synth, tmp_path, capsys, methods):
    cfg_raw = yaml.safe_load(Path(synth.config_path).read_text())
    cfg_raw.update(output_dir=str(tmp_path / "out"), methods=methods)
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(cfg_raw), encoding="utf-8")
    assert run_cli("inspect-segment", "--config", cfg, 1) == 0
    out = capsys.readouterr().out
    samples = {"new-live": 40, "old-live": 4}
    blocks = _per_method_blocks(out)
    assert [(m, n) for m, n, _ in blocks] == [
        (m, samples[m]) for m in methods if m in samples]
    for method, n, lists in blocks:
        assert lists and set(lists) == {n}
    assert ("old-live: 4 user samples for matching, point distances"
            in out) == ("old-live" in methods)
    assert ("new-live: 40 user samples for matching, linestring distances"
            in out) == ("new-live" in methods)

@pytest.mark.parametrize("section, values, message", [
    ("live", {"window_s": float("inf")}, "window_s must be finite, got inf"),
    ("planner", {"search_window_s": float("inf")},
     "search_window_s: must be finite, got inf"),
    ("static", {"walk_speed_mps": 1e-300},
     "tWb = dEmax_m / walk_speed_mps must be at most 86400 s, got 5e+302"),
])
def test_run_refuses_a_threshold_it_cannot_run(synth, tmp_path, capsys,
                                               section, values, message):
    cfg_raw = yaml.safe_load(Path(synth.config_path).read_text())
    cfg_raw.update(output_dir=str(tmp_path / "out"), **{section: values})
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(cfg_raw), encoding="utf-8")
    assert run_cli("run", "--config", cfg) == 1
    assert capsys.readouterr().err == f"error: {section}: {message}\n"


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
