"""Respelled inputs do not change the outputs: the miniature city is copied,
one of its tables rewritten as another text that the readers must read
alike (columns in another order, unread columns, other spellings of the
same ids and numbers), and a full run over the copy must write the same
eight files, byte for byte, as a run over the city. Each respelling first
checks that it took."""
import csv
import re
import shutil

import pytest

from tripmatch import pipeline
from tripmatch.config import load_config

OUTPUTS = ["segments.csv", "matches_new_live.csv", "matches_old_live.csv",
           "matches_static.csv", "static_assessments.csv", "report.txt",
           "report_stats.csv", "trip_inventory.csv"]


def _run(config_path, root, out) -> dict[str, bytes]:
    """The eight outputs of a run of the config over the inputs under root."""
    cfg = load_config(config_path)
    cfg.data_dir, cfg.gtfs, cfg.output_dir = root, root / "gtfs", out
    pipeline.run_all(cfg)
    return {name: (out / name).read_bytes() for name in OUTPUTS}


@pytest.fixture(scope="session")
def city(synth, tmp_path_factory):
    """The miniature city's inputs and the eight outputs of a run over them."""
    return synth, _run(synth.config_path, synth.root,
                       tmp_path_factory.mktemp("respelling-reference"))


def _rewrite(path, edit) -> None:
    """The CSV table at path rewritten as csv.writer writes edit(rows), rows
    being its rows, header first, with its line ends kept."""
    eol = "\r\n" if path.read_bytes().endswith(b"\r\n") else "\n"
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows = edit(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator=eol).writerows(rows)


def _published_column_order(root) -> None:
    """stop_times.txt in a published feed's column order, with the unread
    columns that such feeds carry, stop_headsign holding spaces and
    non-ASCII text."""
    order = ["trip_id", "arrival_time", "departure_time", "stop_id",
             "stop_sequence"]
    signs = ["Töölö tori", " Keskusta ", "", "Itäkeskus (M)"]

    def edit(rows):
        at = [rows[0].index(name) for name in order]
        return [order + ["stop_headsign", "pickup_type", "drop_off_type",
                         "shape_dist_traveled"]] + [
            [row[i] for i in at] + [signs[k % 4], str(k % 2), "0", f"{k * 0.25:g}"]
            for k, row in enumerate(rows[1:])]

    path = root / "gtfs" / "stop_times.txt"
    _rewrite(path, edit)
    text = path.read_text(encoding="utf-8")
    assert text.startswith("trip_id,arrival_time,departure_time,stop_id,"
                           "stop_sequence,stop_headsign,")
    assert ",Töölö tori,0,0,0\n" in text and '"' not in text


def _unread_column_mid_row(root) -> None:
    """transit_live.csv and device_data_filtered.csv with an unread column
    inserted after their second."""
    notes = ["", "ä x", " ", "note 2"]

    def edit(rows):
        return [row[:2] + ["note" if k == 0 else notes[k % 4]] + row[2:]
                for k, row in enumerate(rows)]

    for name in ["transit_live.csv", "device_data_filtered.csv"]:
        _rewrite(root / name, edit)
        text = (root / name).read_text(encoding="utf-8")
        assert re.match(r"[a-z_]+,[a-z_]+,note,", text)
        assert re.search(r"^[^,\n]*,[^,\n]*,ä x,", text, re.M)


def _stop_sequence_spellings(root) -> None:
    """stop_sequence with leading zeros in some rows and a '+' in others."""
    def edit(rows):
        i = rows[0].index("stop_sequence")
        for k, row in enumerate(rows[1:]):
            row[i] = ["00" + row[i], "+" + row[i], row[i]][k % 3]
        return rows

    path = root / "gtfs" / "stop_times.txt"
    _rewrite(path, edit)
    text = path.read_text(encoding="utf-8")
    assert re.search(r",00[1-9][0-9]*\r?$", text, re.M)
    assert re.search(r",\+[1-9][0-9]*\r?$", text, re.M)


def _padded_ids(root) -> None:
    """The trip and stop ids of stop_times.txt and the trip ids of trips.txt
    padded with spaces, two cells in three: a leading space or two trailing
    ones, which the reader strips, so that these cells are not the known ids
    they name and are coded by what they strip to."""
    tables = {"stop_times.txt": ("trip_id", "stop_id"), "trips.txt": ("trip_id",)}
    for name, columns in tables.items():
        def edit(rows):
            at = [rows[0].index(c) for c in columns]
            for k, row in enumerate(rows[1:]):
                for i in at:
                    row[i] = [" " + row[i], row[i] + "  ", row[i]][(k + i) % 3]
            return rows

        path = root / "gtfs" / name
        _rewrite(path, edit)
        text = path.read_text(encoding="utf-8")
        assert re.search(r"^ [^ ,]", text, re.M)
        assert re.search(r"^[^ ,]*  ,", text, re.M)
    assert re.search(r", [^ ,]", (root / "gtfs" / "stop_times.txt").read_text())


@pytest.mark.parametrize("respell", [
    _published_column_order, _unread_column_mid_row, _stop_sequence_spellings,
    _padded_ids], ids=lambda respell: respell.__name__.strip("_"))
def test_respelled_inputs_give_the_same_outputs(city, tmp_path, respell):
    synth, expected = city
    root = tmp_path / "city"
    shutil.copytree(synth.root, root, ignore=shutil.ignore_patterns("out"))
    respell(root)
    outputs = _run(synth.config_path, root, tmp_path / "out")
    assert [name for name in OUTPUTS if outputs[name] != expected[name]] == []
