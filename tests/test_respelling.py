"""Respelled inputs do not change the outputs: the miniature city is copied,
its tables rewritten as another text that the readers must read alike
(columns in another order, unread columns, other spellings of the same ids,
numbers and timestamps, other line ends, quoted cells, the feed zipped), and
a full run over the copy must write the same eight files, byte for byte, as
a run over the city. Each respelling first checks that it took. Only quoted
cells, bare CRs (ones that no LF follows) and empty lines may send a block
to csv.reader: a block whose lines all end in an LF or all in a CRLF is
split on bytes. Every case runs again with blocks of 1 KiB, so that
stop_times.txt and trips.txt span several."""
import csv
import hashlib
import re
import shutil
import zipfile

import pytest

from tripmatch import ingest, pipeline, segmentation
from tripmatch.config import load_config
from tripmatch.live import NEW_LIVE, OLD_LIVE, decide_live
from tripmatch.static import match_static, plan_static

OUTPUTS = ["segments.csv", "matches_new_live.csv", "matches_old_live.csv",
           "matches_static.csv", "static_assessments.csv", "report.txt",
           "report_stats.csv", "trip_inventory.csv"]


def _run(config_path, root, out) -> dict[str, bytes]:
    """The eight outputs of a run of the config over the inputs under root."""
    cfg = load_config(config_path)
    zipped = root / "gtfs.zip"
    cfg.data_dir, cfg.output_dir = root, out
    cfg.gtfs = zipped if zipped.exists() else root / "gtfs"
    pipeline.run_all(cfg)
    return {name: (out / name).read_bytes() for name in OUTPUTS}


@pytest.fixture(scope="session")
def city(synth, tmp_path_factory):
    """The miniature city's inputs and the eight outputs of a run over them."""
    return synth, _run(synth.config_path, synth.root,
                       tmp_path_factory.mktemp("respelling-reference"))


#: the sha256 of each output of the miniature city at its fixed seed. A
#: change that means to change an output updates these and says why
CITY_DIGESTS = {
    "segments.csv": "5bb22dc379873ee3520ac215a89f0df7f01501a207d4cbc71433a008c14486e4",
    "matches_new_live.csv": "e192c54cb874586702757df14207f26063d91b3af02e1cab95ca40e7556aabb9",
    "matches_old_live.csv": "3e42682a4996b172c50a7d0546bc1e530e3d552937d6c0039b95a31f079a1da5",
    "matches_static.csv": "d69806fae232dd256c14ced1b120cac48680f7355e01652c9ad980646c63290b",
    "static_assessments.csv": "57b96103abbb3902b80cc9be44fc99395fcd8902b5d8b2c44827bceed7bb0d14",
    "report.txt": "30211f8877b1f2385e82966df27ec8d5d97a9935b84e956ad4b2e4f21e92f44d",
    "report_stats.csv": "148ab937ca86f7f88374ee37c988d9f744a064f11dfd93e19f99de3d85b75347",
    "trip_inventory.csv": "9c1331b2398a942ccebb56e7593554e186f5d1afd6c0a72e692834918476a7d9",
}


#: the sha256 of the miniature city's live decisions, as _live_decisions
#: writes them: a change to the box prune that alters which vehicles are
#: scored, though no output, still shows
CITY_LIVE_DECISIONS_DIGEST = (
    "6c89b75552b6517686e2f8ca8497d14e7b438861716c4e6669d4ad4018b60cfa")


def test_the_city_outputs_match_their_pinned_digests(city):
    """The eight outputs of a run over the miniature city are the pinned
    bytes, so that an output change that every run shares still shows."""
    _, outputs = city
    assert {name: hashlib.sha256(outputs[name]).hexdigest()
            for name in OUTPUTS} == CITY_DIGESTS


def _live_decisions(cfg) -> str:
    """One line per vehicular candidate and live method: the vehicles in
    range, each scored vehicle with its score, matched fraction and
    eligibility, and the result, floats written exactly."""
    index = pipeline.build_position_index(cfg)
    lines = []
    for s in segmentation.vehicular_candidates(pipeline.build_segments(cfg)):
        for method in (NEW_LIVE, OLD_LIVE):
            d = decide_live(s, cfg.live, index, method)
            scored = " ".join(
                f"{ref}=" + ("-" if v is None else
                             f"{v.score!r}/{v.matched_fraction!r}/{v.eligible}")
                for ref, v in d.scored.items())
            r = d.result
            result = "-" if r is None else (
                f"{r.vehicle_ref} {r.line_type.value} {r.line_name} "
                f"{r.score!r} {r.matched_fraction!r}")
            lines.append(f"{s.segment_id} {method} [{' '.join(d.in_range)}] "
                         f"[{scored}] {result}")
    return "\n".join(lines) + "\n"


def test_the_city_live_decisions_match_their_pinned_digest(city):
    """Every live decision over the miniature city is the pinned one: the
    vehicles in range, those scored past the box prune with their scores,
    and the match."""
    synth, _ = city
    text = _live_decisions(load_config(synth.config_path))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        CITY_LIVE_DECISIONS_DIGEST


#: the sha256 of the miniature city's static decisions, as
#: _static_decisions writes them: static_assessments.csv rounds fractions
#: to 3 places, so a bit-level drift of the route kernel or of the walks
#: shows only here
CITY_STATIC_DECISIONS_DIGEST = (
    "3dcb6bd01cf2c774160f04a4aef6a98a53f657cc96a7ddaa99a023fa3a112b82")


def _static_line(segment_id, d) -> str:
    """A static decision: the planner's reason; per plan its trip, board
    and alight stop and time, both walks, route fraction, longest gap and
    verdict; and the result, floats written exactly."""
    plans = " ".join(
        f"{leg.trip_id}/{leg.board_stop}/{leg.board_time.isoformat()}/"
        f"{leg.alight_stop}/{leg.alight_time.isoformat()}/"
        f"{a.itinerary.walk_before_s!r}/{a.itinerary.walk_after_s!r}/"
        f"{a.route_match_fraction!r}/{a.max_adjacent_run_outside}/"
        f"{a.verdict.value}"
        for a in d.assessments for leg in [a.itinerary.transit])
    r = d.result
    result = "-" if r is None else (
        f"{r.trip_id} {r.line_type.value} {r.line_name}")
    return f"{segment_id} {d.reason} [{plans}] {result}"


def _static_decisions(cfg) -> str:
    """One line per vehicular candidate, from one search and route pass of
    them all, as the static stage decides; each line is also that of the
    segment matched alone."""
    planner = pipeline.build_planner(cfg)
    segments = segmentation.vehicular_candidates(pipeline.build_segments(cfg))
    lines = []
    for s, found in zip(segments, plan_static(segments, planner, cfg.constants)):
        line = _static_line(s.segment_id, match_static(s, planner, cfg.constants,
                                                       found))
        assert line == _static_line(s.segment_id,
                                    match_static(s, planner, cfg.constants))
        lines.append(line)
    return "\n".join(lines) + "\n"


def test_the_city_static_decisions_match_their_pinned_digest(city):
    """Every static decision over the miniature city is the pinned one: the
    planner's reason, each plan with its route check and verdict, and the
    match."""
    synth, _ = city
    text = _static_decisions(load_config(synth.config_path))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        CITY_STATIC_DECISIONS_DIGEST


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


def _zipped_feed(root) -> None:
    """The GTFS feed as one zip archive of its files, its directory gone."""
    feed = root / "gtfs"
    names = sorted(p.name for p in feed.glob("*.txt"))
    with zipfile.ZipFile(root / "gtfs.zip", "w") as archive:
        for name in names:
            archive.write(feed / name, name)
    shutil.rmtree(feed)
    assert not feed.exists()
    assert "stop_times.txt" in names
    assert sorted(zipfile.ZipFile(root / "gtfs.zip").namelist()) == names


def _swapped_line_ends(root) -> None:
    """The dataset tables from CRLF line ends to LF, the GTFS files from LF
    to CRLF."""
    for path in root.glob("*.csv"):
        data = path.read_bytes()
        assert data.count(b"\r\n") == data.count(b"\n") > 0
        path.write_bytes(data.replace(b"\r\n", b"\n"))
        assert b"\r" not in path.read_bytes()
    for path in (root / "gtfs").glob("*.txt"):
        data = path.read_bytes()
        assert b"\r" not in data and b"\n" in data
        path.write_bytes(data.replace(b"\n", b"\r\n"))
        data = path.read_bytes()
        assert data.count(b"\r\n") == data.count(b"\n") == data.count(b"\r")


def _bare_cr_line_ends(root) -> None:
    """Every line of the dataset tables ends in a bare CR."""
    for path in root.glob("*.csv"):
        path.write_bytes(path.read_bytes().replace(b"\r\n", b"\n")
                         .replace(b"\n", b"\r"))
        data = path.read_bytes()
        assert b"\n" not in data and data.endswith(b"\r")


def _cr_crlf_line_ends(root) -> None:
    """Every line of the dataset tables ends in a CR and then a CRLF, which
    csv.reader reads as the line and an empty line, and another empty line
    follows every fifth line."""
    for path in root.glob("*.csv"):
        data = path.read_bytes()
        assert data.endswith(b"\r\n") and data.count(b"\r") == data.count(b"\n")
        lines = data.split(b"\r\n")[:-1]
        path.write_bytes(b"".join(line + (b"\r\r\n\r\n" if k % 5 == 4 else b"\r\r\n")
                                  for k, line in enumerate(lines)))
        data = path.read_bytes()
        assert data.count(b"\r\r\n") == len(lines) >= 5
        assert data.count(b"\n\r\n") == len(lines) // 5


def _quoted_cells(root) -> None:
    """Every cell of the dataset tables and the GTFS files quoted, so that
    each file is read through csv.reader."""
    paths = [*root.glob("*.csv"), *(root / "gtfs").glob("*.txt")]
    for path in paths:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, quoting=csv.QUOTE_ALL).writerows(rows)
    assert (root / "gtfs" / "stop_times.txt").read_bytes().startswith(b'"')
    assert all(path.read_bytes().startswith(b'"') for path in paths)


def _number_spellings(root) -> None:
    """Every coordinate cell respelled as another text that float() reads
    as the same double: '%.17e' and a leading '+' go to float() one cell at
    a time, a trailing '0' through the byte scan."""
    tables = {"device_data_filtered.csv": ("lat", "lng"),
              "transit_live.csv": ("lat", "lng"),
              "gtfs/stops.txt": ("stop_lat", "stop_lon"),
              "gtfs/shapes.txt": ("shape_pt_lat", "shape_pt_lon")}

    def respell(cell, k):
        x = float(cell)
        text = repr(x)
        forms = ["%.17e" % x, "+" + text if x >= 0 else text,
                 text + "0" if "." in text and "e" not in text else text]
        assert float(forms[k % 3]).hex() == x.hex(), cell
        return forms[k % 3]

    for name, columns in tables.items():
        def edit(rows):
            at = [rows[0].index(c) for c in columns]
            for k, row in enumerate(rows[1:]):
                for i in at:
                    row[i] = respell(row[i], k + i)
            return rows

        _rewrite(root / name, edit)
    assert "e+01," in (root / "transit_live.csv").read_text()
    assert ",+" in (root / "gtfs" / "stops.txt").read_text()


def _timestamp_spellings(root) -> None:
    """Every time cell of the device and fleet tables, and every non-blank
    time of the manual log, respelled as another text that parse_timestamp
    reads as the same second: the ISO 'T' form and a '.000' fraction
    (truncated) alternate, and both leave the byte scan, so each such cell
    is parsed on its own."""
    tables = {"device_data_filtered.csv": ("time",),
              "transit_live.csv": ("time",),
              "manual_log.csv": ("st_entry_time", "vehicle_dep_time",
                                 "vehicle_arr_time", "st_exit_time")}
    for name, columns in tables.items():
        def edit(rows):
            at = [rows[0].index(c) for c in columns]
            for k, row in enumerate(rows[1:]):
                for i in at:
                    if row[i]:
                        row[i] = (row[i].replace(" ", "T") if (k + i) % 2
                                  else row[i] + ".000")
            return rows

        _rewrite(root / name, edit)
        text = (root / name).read_text()
        assert re.search(r"2016-08-26T[0-9:]*,", text)
        assert re.search(r"2016-08-26 [0-9:]*\.000,", text)


RESPELLINGS = pytest.mark.parametrize("respell", [
    _published_column_order, _unread_column_mid_row, _stop_sequence_spellings,
    _padded_ids, _zipped_feed, _swapped_line_ends, _bare_cr_line_ends,
    _cr_crlf_line_ends, _quoted_cells, _number_spellings, _timestamp_spellings],
    ids=lambda respell: respell.__name__.strip("_"))


def _assert_same_outputs(city, tmp_path, monkeypatch, respell) -> None:
    """A run over the respelled copy of the city writes the city's outputs,
    and only quoted cells, bare CRs and empty lines send a block to
    csv.reader (ingest._lines)."""
    synth, expected = city
    root = tmp_path / "city"
    shutil.copytree(synth.root, root, ignore=shutil.ignore_patterns("out"))
    respell(root)
    lines, read = ingest._lines, []

    def counted(*args):
        read.append(args[1])
        return lines(*args)

    monkeypatch.setattr(ingest, "_lines", counted)
    outputs = _run(synth.config_path, root, tmp_path / "out")
    assert [name for name in OUTPUTS if outputs[name] != expected[name]] == []
    assert bool(read) is (respell in (_quoted_cells, _bare_cr_line_ends,
                                      _cr_crlf_line_ends)), read


@RESPELLINGS
def test_respelled_inputs_give_the_same_outputs(city, tmp_path, monkeypatch,
                                                respell):
    _assert_same_outputs(city, tmp_path, monkeypatch, respell)


@RESPELLINGS
def test_respelled_inputs_in_small_blocks_give_the_same_outputs(
        city, tmp_path, monkeypatch, respell):
    """As above, every table read in 1 KiB blocks, so that stop_times.txt
    and trips.txt span several blocks each."""
    synth, _ = city
    for name in ["stop_times.txt", "trips.txt"]:
        assert (synth.root / "gtfs" / name).stat().st_size > 4 * 1024
    monkeypatch.setattr(ingest, "_CHUNK_BYTES", 1024)
    _assert_same_outputs(city, tmp_path, monkeypatch, respell)
