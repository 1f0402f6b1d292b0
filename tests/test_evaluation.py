from tripmatch.evaluation import (
    COMBINED,
    INV_NO_SEGMENT,
    INV_OVERLAPPING,
    INV_RECOGNIZED,
    Recognition,
    compute_stats,
    join_trips,
    names_match,
    render_report_csv,
    render_report_text,
    write_inventory_csv,
)
from tripmatch.types import Activity, LineType, ManualTrip

from conftest import at, fp, segment_of


def trip(dep_s, arr_s, *, device_id=1, line_type=LineType.TRAM, name="7"):
    return ManualTrip(device_id=device_id, line_type=line_type, line_name=name,
                      vehicle_dep_time=at(dep_s), vehicle_arr_time=at(arr_s))


def seg(segment_id, start_s, end_s, *, device_id=1,
        activity=Activity.IN_VEHICLE):
    return segment_of([fp(start_s, activity, device_id=device_id),
                       fp(end_s, activity, device_id=device_id)], segment_id)


def rec(line_type, name=""):
    return Recognition(line_type, name)


def test_multi_segment_trip_recognized_once():
    # one tram trip overlapped by two vehicular segments and a bicycle one
    t = trip(0, 800)
    segments = [seg(1, 0, 300), seg(2, 320, 400, activity=Activity.ON_BICYCLE),
                seg(3, 420, 800)]
    verdicts = join_trips([t], segments, {"m": {
        1: rec(LineType.TRAM, "7"), 3: rec(LineType.TRAM, "7")}})
    [v] = verdicts
    assert v.outcomes["m"].recognized_identity
    stats = compute_stats(verdicts, ["m"])
    assert stats["m"].per_type[LineType.TRAM].recognized == 1
    assert stats["m"].public_transport == 1


def test_segment_across_two_trips_credits_only_matching_type():
    # the same segment spans a tram trip and a subway trip; its TRAM result
    # must not mark the subway trip as recognised
    tram = trip(0, 500, line_type=LineType.TRAM, name="7")
    subway = trip(600, 900, line_type=LineType.SUBWAY, name="To east")
    spanning = seg(1, 0, 900)
    verdicts = join_trips([tram, subway], [spanning],
                          {"m": {1: rec(LineType.TRAM, "7")}})
    assert verdicts[0].outcomes["m"].recognized_identity
    assert not verdicts[1].outcomes["m"].recognized_any
    assert verdicts[1].inventory("m") == INV_OVERLAPPING


def test_false_type_on_single_trip_counts_as_any_but_not_type():
    # a lone overlapping trip with a wrong-type result: counted in the
    # public-transport total but in no mode row
    t = trip(0, 500, line_type=LineType.TRAIN, name="U")
    verdicts = join_trips([t], [seg(1, 0, 500)],
                          {"m": {1: rec(LineType.BUS, "16")}})
    [v] = verdicts
    assert v.outcomes["m"].recognized_any
    assert not v.outcomes["m"].recognized_type
    stats = compute_stats(verdicts, ["m"])
    assert stats["m"].public_transport == 1
    assert stats["m"].public_transport_line_type == 0
    assert stats["m"].per_type[LineType.TRAIN].recognized == 0


def test_subway_recognized_by_type_alone():
    t = trip(0, 500, line_type=LineType.SUBWAY, name="To west")
    verdicts = join_trips([t], [seg(1, 0, 500)],
                          {"m": {1: rec(LineType.SUBWAY, "V")}})
    [v] = verdicts
    assert v.outcomes["m"].recognized_identity
    stats = compute_stats(verdicts, ["m"])
    assert stats["m"].per_type[LineType.SUBWAY].recognized == 1
    assert stats["m"].per_type[LineType.SUBWAY].name_correct is None


def test_wrong_name_right_type_is_type_only():
    t = trip(0, 500, line_type=LineType.TRAM, name="9")
    verdicts = join_trips([t], [seg(1, 0, 500)],
                          {"m": {1: rec(LineType.TRAM, "3")}})
    [v] = verdicts
    assert v.outcomes["m"].recognized_type
    assert not v.outcomes["m"].recognized_identity
    assert v.inventory("m") == INV_OVERLAPPING


def test_no_vehicular_segment_inventory():
    t = trip(0, 500)
    walk = seg(1, 0, 500, activity=Activity.WALKING)
    verdicts = join_trips([t], [walk], {"m": {}})
    assert verdicts[0].inventory("m") == INV_NO_SEGMENT


def test_inventory_partition_per_method():
    trips = [trip(0, 400, name="7"),
             trip(1000, 1400, name="9"),
             trip(2000, 2400, line_type=LineType.SUBWAY, name="")]
    segments = [seg(1, 0, 400), seg(2, 1000, 1400),
                seg(3, 2100, 2200, activity=Activity.WALKING)]
    verdicts = join_trips(trips, segments, {"m": {1: rec(LineType.TRAM, "7")}})
    inventories = [v.inventory("m") for v in verdicts]
    assert inventories == [INV_RECOGNIZED, INV_OVERLAPPING, INV_NO_SEGMENT]


def test_car_trips_never_in_pt_denominator():
    car = trip(0, 400, device_id=7, line_type=LineType.CAR, name="")
    pt = trip(1000, 1400, device_id=1)
    segments = [seg(1, 0, 400, device_id=7), seg(2, 1000, 1400, device_id=1)]
    verdicts = join_trips([car, pt], segments,
                          {"m": {1: rec(LineType.BUS, "16"),
                                 2: rec(LineType.TRAM, "7")}})
    stats = compute_stats(verdicts, ["m"])
    assert stats["m"].logged_total == 1
    assert stats["m"].car_logged == 1
    assert stats["m"].car_recognized == 1  # negative-control regression signal


def test_combined_is_union_and_monotone():
    trips = [trip(0, 400, name="7"), trip(1000, 1400, name="9")]
    segments = [seg(1, 0, 400), seg(2, 1000, 1400)]
    recognitions = {
        "a": {1: rec(LineType.TRAM, "7")},
        "b": {2: rec(LineType.TRAM, "9")},
    }
    stats = compute_stats(join_trips(trips, segments, recognitions), ["a", "b"])
    assert stats["a"].per_type[LineType.TRAM].recognized == 1
    assert stats["b"].per_type[LineType.TRAM].recognized == 1
    assert stats[COMBINED].per_type[LineType.TRAM].recognized == 2
    for lt, ts in stats[COMBINED].per_type.items():
        assert ts.recognized >= stats["a"].per_type[lt].recognized
        assert ts.recognized >= stats["b"].per_type[lt].recognized


def test_name_normalisation_rules():
    tram = trip(0, 1, name="7A")
    assert names_match(tram, rec(LineType.TRAM, "7a"))
    assert not names_match(tram, rec(LineType.TRAM, "7"))
    bus = trip(0, 1, line_type=LineType.BUS, name="102T")
    assert names_match(bus, rec(LineType.BUS, "102T"))
    assert names_match(bus, rec(LineType.BUS, "102"))  # variant suffix
    assert not names_match(bus, rec(LineType.BUS, "103"))
    train = trip(0, 1, line_type=LineType.TRAIN, name="U")
    assert names_match(train, rec(LineType.TRAIN, "u"))
    assert not names_match(train, rec(LineType.TRAIN, "I"))
    unnamed = trip(0, 1, name="")
    assert not names_match(unnamed, rec(LineType.TRAM, "7"))


def test_stats_conservation_totals():
    trips = [trip(0, 100, name="7"),
             trip(200, 300, line_type=LineType.BUS, name="16"),
             trip(400, 500, line_type=LineType.TRAIN, name="U"),
             trip(600, 700, line_type=LineType.SUBWAY, name="")]
    verdicts = join_trips(trips, [], {"m": {}})
    stats = compute_stats(verdicts, ["m"])
    assert stats["m"].logged_total == 4
    assert sum(ts.logged for ts in stats["m"].per_type.values()) == 4
    assert stats["m"].public_transport == 0


def test_render_text_has_table7_row_labels():
    trips = [trip(0, 400, name="7")]
    verdicts = join_trips(trips, [seg(1, 0, 400)],
                          {"m": {1: rec(LineType.TRAM, "7")}})
    stats = compute_stats(verdicts, ["m"])
    text = render_report_text(stats, verdicts)
    for label in ("Bus", "Bus (line name)", "Tram", "Train", "Subway",
                  "Public transport", "Public transport (line type)",
                  "Logged"):
        assert label in text
    assert "recognised" in text  # inventories attached


def test_render_csv_one_row_per_method_and_type():
    verdicts = join_trips([trip(0, 400, name="7")], [seg(1, 0, 400)],
                          {"m": {1: rec(LineType.TRAM, "7")}})
    stats = compute_stats(verdicts, ["m"])
    csv_text = render_report_csv(stats)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "method,line_type,recognized,name_correct,logged"
    assert sum(1 for ln in lines if ln.startswith("m,")) == 7
    assert sum(1 for ln in lines if ln.startswith(f"{COMBINED},")) == 7


def test_empty_verdicts_render_headers_only():
    stats = compute_stats([], ["m"])
    text = render_report_text(stats, [])
    assert "Public transport" in text
    csv_text = render_report_csv(stats)
    assert csv_text.splitlines()[0].startswith("method,")


def test_inventory_csv_lists_trip_segments(tmp_path):
    trips = [trip(0, 400, name="7")]
    verdicts = join_trips(trips, [seg(1, 0, 400)],
                          {"m": {1: rec(LineType.TRAM, "7")}})
    path = tmp_path / "inv.csv"
    write_inventory_csv(verdicts, ["m"], path)
    rows = path.read_text().strip().splitlines()
    assert rows[0].startswith("method,inventory,dev_id")
    assert len(rows) == 2
    assert "recognized" in rows[1]
    assert "TRAM,7" in rows[1]
