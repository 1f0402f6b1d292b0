"""The generator is seeded, and its truth manifest describes its tables."""
import json
from datetime import timedelta
from pathlib import Path

import pytest

import citygen
from tripmatch import ingest
from tripmatch.gtfs import load_gtfs
from tripmatch.live import LiveMatchConfig

TABLES = ("device_data_filtered.csv", "transit_live.csv", "manual_log.csv",
          "gtfs/stop_times.txt", "gtfs/trips.txt", "truth.json")


def _tiny(name: str = "published-day") -> citygen.Workload:
    return citygen.WORKLOADS[name].scaled(0.1)


def _files(root: Path) -> dict[str, bytes]:
    return {name: (root / name).read_bytes() for name in TABLES}


def test_same_seed_same_inputs_other_seed_other_inputs(tmp_path):
    citygen.generate(tmp_path / "a", _tiny(), seed=5)
    citygen.generate(tmp_path / "b", _tiny(), seed=5)
    citygen.generate(tmp_path / "c", _tiny(), seed=6)
    a, b, c = (_files(tmp_path / x) for x in "abc")
    assert a == b
    assert a["transit_live.csv"] != c["transit_live.csv"]
    assert a["device_data_filtered.csv"] != c["device_data_filtered.csv"]


@pytest.mark.parametrize("name", sorted(citygen.WORKLOADS))
def test_truth_manifest_agrees_with_tables(tmp_path, name):
    truth = citygen.generate(tmp_path, _tiny(name), seed=3)
    assert truth == json.loads((tmp_path / "truth.json").read_text())

    filtered = ingest.load_filtered_data(tmp_path / "device_data_filtered.csv")
    live = ingest.load_transit_live(tmp_path / "transit_live.csv")
    log = ingest.load_manual_log(tmp_path / "manual_log.csv")
    gtfs = load_gtfs(tmp_path / "gtfs")
    rows = truth["rows"]
    assert rows["device_data_filtered"] == len(filtered)
    assert rows["transit_live"] == len(live)
    assert rows["manual_log"] == len(log)
    assert rows["gtfs_stop_times"] == len(gtfs.stop_times)
    assert rows["gtfs_trips"] == len(gtfs.trips)
    assert rows["gtfs_stops"] == len(gtfs.stops)
    refs = {v.vehicle_ref for v in live}
    assert truth["vehicles"] == len(refs)

    planted = truth["planted_trips"]
    assert truth["pt_trips"] == len(planted) == sum(
        t.line_type.value != "CAR" for t in log)
    assert len(truth["car_trips"]) == sum(t.line_type.value == "CAR" for t in log)
    assert truth["vehicular_segments_expected"] == len(planted) + len(truth["car_trips"])
    stamps = {(p.device_id, ingest.format_timestamp(p.time)): p for p in filtered}
    today = gtfs.trips_on(citygen.DAY)
    for ride in planted:
        trip = gtfs.trips[ride["trip_id"]]
        assert gtfs.routes[trip.route_id].short_name == ride["line_name"]
        assert ride["trip_id"] in today
        assert (ride["vehicle_ref"] in refs) == ride["live_expected"]
        for fix in ("first_fix", "last_fix"):
            point = stamps[(ride["device_id"], ride[fix])]
            assert point.activity.value == "IN_VEHICLE"

    assert truth["trips_on_date_share"] == len(today) / len(gtfs.trips)
    assert truth["trips_past_midnight"] == len(
        {st.trip_id for st in gtfs.stop_times if st.arrival_s > 24 * 3600})
    window = timedelta(seconds=LiveMatchConfig().window_s)
    for ride in planted + truth["car_trips"]:
        t0 = ingest.parse_timestamp(ride["first_fix"]) - window
        t1 = ingest.parse_timestamp(ride["last_fix"]) + window
        active = {v.vehicle_ref for v in live if t0 <= v.time <= t1}
        assert ride["vehicles_active_share"] == len(active) / len(refs)


def test_vehicles_run_shift_blocks_of_consecutive_trips():
    refs = set()
    for line in citygen._lines(citygen.WORKLOADS["published-day"]):
        for block in citygen._blocks(line):
            assert len(block) >= 3
            assert len({trip.vehicle_ref for trip in block}) == 1
            for before, after in zip(block, block[1:]):
                assert after.dep_s >= before.dep_s + line.run_s
                assert after.forward != before.forward
            refs.add(block[0].vehicle_ref)
            step = line.run_s + citygen.LAYOVER_S
            assert (block[-1].dep_s - block[0].dep_s
                    < citygen.SHIFT_S + citygen.SHIFT_STAGGER_S + 2 * step)
    assert len(refs) == sum(len(citygen._blocks(line)) for line in
                            citygen._lines(citygen.WORKLOADS["published-day"]))


def test_part_of_the_fleet_is_on_the_road_and_some_trips_run_other_days(tmp_path):
    truth = citygen.generate(tmp_path, _tiny(), seed=3)
    assert 0.2 < truth["vehicles_active_share_median"] < 0.8
    assert 0.3 < truth["trips_on_date_share"] < 0.8
    assert truth["trips_past_midnight"] > 0
