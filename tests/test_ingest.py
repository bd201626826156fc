"""CSV ingestion: schema checks, gap detection, canonical round trips."""

import csv
import io
from datetime import timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from desk import assert_window_of_flat_map, noleap_walk
from heatgrid.dataset import build_ingested_dataset
from heatgrid.ingest import (
    BadHeader,
    csv_chunks,
    emit_csv,
    ingest_file,
    parse_quantity,
)
from heatgrid.scenarios import make_instance, specs_for_selector
from heatgrid.series import (
    AlignmentError,
    HourlySeries,
    MissingValue,
    OutOfRange,
    SeriesError,
    utc,
    window_july_june,
)
from heatgrid.synth import synth_profiles


def write(tmp_path, text, name="input.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


HEADER = "timestamp,country,quantity,value\n"


def test_availability_passthrough(tmp_path):
    path = write(
        tmp_path,
        HEADER
        + "2009-07-01T00:00:00Z,DE,availability_factor.solar_pv,0.0\n"
        + "2009-07-01T01:00:00Z,DE,availability_factor.solar_pv,0.5\n"
        + "2009-07-01T02:00:00Z,DE,availability_factor.solar_pv,1.0\n",
    )
    ser = ingest_file(path)[("DE", "availability_factor.solar_pv")]
    assert list(ser.values) == [0.0, 0.5, 1.0]
    assert ser.country == "DE"


def test_out_of_range_availability(tmp_path):
    path = write(
        tmp_path,
        HEADER
        + "2009-07-01T00:00:00Z,DE,availability_factor.solar_pv,0.4\n"
        + "2009-07-01T01:00:00Z,DE,availability_factor.solar_pv,1.2\n",
    )
    with pytest.raises(OutOfRange):
        ingest_file(path)


def test_gap_is_missing_value_and_names_timestamp(tmp_path):
    path = write(
        tmp_path,
        HEADER
        + "2009-07-01T00:00:00Z,DE,electric_load_MW,5\n"
        + "2009-07-01T02:00:00Z,DE,electric_load_MW,6\n",
    )
    with pytest.raises(MissingValue, match="2009-07-01T02:00"):
        ingest_file(path)


def test_duplicate_timestamp_rejected(tmp_path):
    path = write(
        tmp_path,
        HEADER
        + "2009-07-01T00:00:00Z,DE,electric_load_MW,5\n"
        + "2009-07-01T00:00:00Z,DE,electric_load_MW,6\n",
    )
    with pytest.raises(SeriesError, match="duplicate"):
        ingest_file(path)


def test_bad_header(tmp_path):
    path = write(tmp_path, "time,country,quantity,value\n2009-07-01T00:00:00Z,DE,cop.space.air,2\n")
    with pytest.raises(BadHeader):
        ingest_file(path)


def test_unknown_quantity_and_subkeys(tmp_path):
    with pytest.raises(BadHeader):
        parse_quantity("banana")
    with pytest.raises(BadHeader, match=r"^quantity electric_load_MW takes no subkeys, got 'electric_load_MW.extra'$"):
        parse_quantity("electric_load_MW.extra")
    with pytest.raises(BadHeader, match=r"^cop needs <sink>.<heat_pump_type>, got 'cop.space'$"):
        parse_quantity("cop.space")  # needs sink AND pump type
    with pytest.raises(BadHeader, match=r"^heat_demand_MWth needs <building_type>.<sink>, got 'heat_demand_MWth.villa.space'$"):
        parse_quantity("heat_demand_MWth.villa.space")
    with pytest.raises(BadHeader, match=r"^availability_factor needs <technology>, got 'availability_factor.ccgt'$"):
        parse_quantity("availability_factor.ccgt")  # not a variable renewable
    assert parse_quantity("heat_demand_MWth.single_family.space") == (
        "heat_demand_MWth",
        ("single_family", "space"),
    )


def test_leap_day_rows_are_dropped(tmp_path):
    # 2012-02-28T23 .. 2012-03-01T01, including two Feb 29 hours which the
    # no-leap calendar drops; the remainder is contiguous.
    stamps = [
        "2012-02-28T23:00:00Z",
        "2012-02-29T00:00:00Z",
        "2012-02-29T01:00:00Z",
        "2012-03-01T00:00:00Z",
        "2012-03-01T01:00:00Z",
    ]
    text = HEADER + "".join(f"{ts},DE,electric_load_MW,{i}\n" for i, ts in enumerate(stamps))
    ser = ingest_file(write(tmp_path, text))[("DE", "electric_load_MW")]
    assert list(ser.values) == [0.0, 3.0, 4.0]
    # A full Feb 29 plus a real gap (Mar 1 01:00 missing) still errors.
    bad = HEADER + "".join(
        f"{ts},DE,electric_load_MW,{i}\n"
        for i, ts in enumerate(["2012-02-28T23:00:00Z", "2012-03-01T00:00:00Z", "2012-03-01T02:00:00Z"])
    )
    with pytest.raises(MissingValue):
        ingest_file(write(tmp_path, bad, "bad.csv"))


def test_offset_and_naive_timestamps_read_as_utc(tmp_path):
    path = write(
        tmp_path,
        HEADER
        + "2009-07-01T01:00:00+01:00,DE,electric_load_MW,5\n"
        + "2009-07-01T01:00:00Z,DE,electric_load_MW,6\n"
        + "2009-07-01T02:00:00,DE,electric_load_MW,7\n",
    )
    ser = ingest_file(path)[("DE", "electric_load_MW")]
    assert ser.start == utc(2009, 7, 1)
    assert list(ser.values) == [5.0, 6.0, 7.0]


def test_timestamp_off_the_hour_raises(tmp_path):
    path = write(tmp_path, HEADER + "2009-07-01T00:30:00Z,DE,electric_load_MW,5\n")
    with pytest.raises(SeriesError, match="'2009-07-01T00:30:00Z' is not on the hour"):
        ingest_file(path)


@pytest.mark.parametrize(
    "row, message",
    [
        ("2009-07-01T01:00:00Z,DE,electric_load_MW,five\n", "bad value 'five'"),
        ("2009-07-01T01:00:00Z,DE,5\n", "expected 4 fields, got 3"),
    ],
)
def test_bad_row_names_its_line(tmp_path, row, message):
    # Line 3 is blank; the bad row is line 4.
    path = write(tmp_path, HEADER + "2009-07-01T00:00:00Z,DE,electric_load_MW,4\n\n" + row)
    with pytest.raises(SeriesError) as err:
        ingest_file(path)
    assert f"{path}:4: {message}" in str(err.value)


def test_unknown_country_raises(tmp_path):
    path = write(tmp_path, HEADER + "2009-07-01T00:00:00Z,XX,electric_load_MW,4\n")
    with pytest.raises(ValueError, match="unknown country code 'XX'"):
        ingest_file(path)


def test_emit_ingest_round_trip_is_byte_identical(tmp_path):
    series_map = synth_profiles(11, ["DE", "AT"], 48)
    text = emit_csv(series_map)
    path = write(tmp_path, text, "canonical.csv")
    re_read = ingest_file(path)
    assert emit_csv(re_read) == text
    for key, ser in series_map.items():
        np.testing.assert_array_equal(re_read[key].values, ser.values)
        assert re_read[key].start == ser.start


def test_make_instance_files_each_family():
    ds = build_ingested_dataset(synth_profiles(5, ["DE", "CH"], 24), [2009])
    inst = make_instance(ds, specs_for_selector("base", [2009], 24)[2], 2009)  # 25%, two-hour tank
    assert inst.countries == ("CH", "DE")
    assert len(inst.loads_mw["DE"]) == 24
    assert {t for c, t in inst.availability if c == "DE"} == {"solar_pv", "wind_onshore", "wind_offshore", "run_of_river"}
    assert len(inst.heat.demand["DE"].profiles) == 6  # 3 building types x 2 sinks
    assert inst.heat.demand["CH"].profiles == {}  # no heat rollout
    assert inst.heat.fleet["CH"] == {}  # every country of the demand map is sized


def test_ingested_dataset_rejects_a_country_without_load():
    series_map = synth_profiles(3, ["DE", "FR"], 48)
    del series_map[("FR", "electric_load_MW")]
    with pytest.raises(SeriesError, match="^FR: no electric_load_MW series$"):
        build_ingested_dataset(series_map, [2009])


def test_ingested_dataset_rejects_a_series_that_starts_late():
    series_map = synth_profiles(3, ["DE", "FR"], 48)
    cop = series_map[("DE", "cop.space.air")]
    series_map[("DE", "cop.space.air")] = HourlySeries("DE", "cop", utc(2009, 7, 1, 1), cop.values[1:])
    with pytest.raises(AlignmentError, match=r"^DE: cop series misaligned: \(2009-07-01 01:00:00\+00:00, 47\)"):
        build_ingested_dataset(series_map, [2009])


def test_ingest_series_requires_unique_match(tmp_path):
    series_map = synth_profiles(5, ["DE"], 24)
    read = ingest_file(write(tmp_path, emit_csv(series_map), "all.csv"))
    # A base quantity such as cop matches several series; a full (country, quantity) key picks one.
    cops = [q for (_, q) in read if parse_quantity(q)[0] == "cop"]
    assert len(cops) > 1
    load = read[("DE", "electric_load_MW")]
    assert load.quantity == "electric_load_MW"


def test_multi_year_series_window_across_leap_boundary():
    # Two back-to-back synthetic years stitched into one long series; the
    # no-leap calendar puts July 1 2012 exactly 8760 hours after July 1
    # 2011 even though Feb 29 2012 lies in between.
    year_a = synth_profiles(3, ["DE"], 8760, start_year=2011)
    year_b = synth_profiles(3, ["DE"], 8760, start_year=2012)
    long_map = {}
    for key, ser_a in year_a.items():
        ser_b = year_b[key]
        long_map[key] = HourlySeries(
            country=ser_a.country,
            quantity=ser_a.quantity,
            start=utc(2011, 7, 1),
            values=np.concatenate([ser_a.values, ser_b.values]),
        )
    ds = build_ingested_dataset(long_map, [2011, 2012])
    win11, win12 = (make_instance(ds, specs_for_selector("base", [y], 48)[2], y) for y in (2011, 2012))
    key = ("single_family", "space")
    assert win11.heat.demand["DE"].profiles[key].start == utc(2011, 7, 1)
    assert win12.heat.demand["DE"].profiles[key].start == utc(2012, 7, 1)
    load_a = year_a[("DE", "electric_load_MW")].values
    load_b = year_b[("DE", "electric_load_MW")].values
    np.testing.assert_array_equal(win11.loads_mw["DE"], load_a[:48])
    np.testing.assert_array_equal(win12.loads_mw["DE"], load_b[:48])
    # Heat profiles and COPs window consistently too.
    np.testing.assert_array_equal(
        win12.heat.demand["DE"].profiles[key].values,
        year_b[("DE", "heat_demand_MWth.single_family.space")].values[:48],
    )
    np.testing.assert_array_equal(
        win12.heat.cops["DE"].profiles[("space", "air")].values, year_b[("DE", "cop.space.air")].values[:48]
    )


def test_ingested_dataset_provenance_and_windows():
    series_map = synth_profiles(3, ["DE", "FR"], 8760 + 48)  # covers the 2009 and 2010 windows
    ds = build_ingested_dataset(series_map, [2009, 2010])
    # One map serves every year, hashed once; the digest is pinned.
    assert ds.provenance == "759e61ece1597f37455e5c47985961360db2ade7ad2c3e34e0765bad1e3537dd"
    for year in ds.years:
        assert_window_of_flat_map(ds, year, 48, series_map)


def _reference_csv(series_map):
    """Canonical CSV as the row-at-a-time writer composed it (kept to pin the bytes)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("timestamp", "country", "quantity", "value"))
    for country, fullq in sorted(series_map):
        ser = series_map[(country, fullq)]
        for ts, value in zip(noleap_walk(ser.start, len(ser)), ser.values):
            stamp = ts.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
            writer.writerow([stamp, country, fullq, repr(float(value))])
    return buf.getvalue()


def _assert_same_text(got, want):
    # Name the first line that differs: pytest's diff of two texts of
    # 20,000 lines would take minutes.
    if got != want:
        got, want = got.splitlines(), want.splitlines()
        k = next((i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]), None)
        k = min(len(got), len(want)) if k is None else k
        pytest.fail(f"line {k}: {got[k:k + 1]} != {want[k:k + 1]} ({len(got)} vs {len(want)} lines)")


_STARTS = [
    utc(2009, 7, 1),
    utc(2012, 2, 28, 20),  # crosses Feb 29 2012 after four hours
    utc(2012, 2, 29),  # on Feb 29 itself: hour 0 keeps it
    utc(2012, 2, 29, 13),
    utc(2015, 12, 31, 23),  # crosses into a leap year
]
_QUANTITIES = [
    "electric_load_MW",
    "hydro_inflow_MWh",
    "heat_demand_MWth.single_family.space",
    "availability_factor.solar_pv",
]
_VALUES = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, 1e-5, 1e16, 0.1 + 0.2, 1 / 3, 1.0]),
    st.floats(0.0, 1e300),
)


@st.composite
def _series_maps(draw):
    shapes = draw(
        st.lists(
            st.tuples(
                st.sampled_from(_STARTS),
                st.one_of(st.integers(1, 60), st.integers(1, 20_000)),
            ),
            min_size=1,
            max_size=2,
        )
    )
    keys = draw(
        st.lists(
            st.tuples(st.sampled_from(["AT", "DE", "FR"]), st.sampled_from(_QUANTITIES)),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    out = {}
    for country, fullq in keys:
        start, hours = draw(st.sampled_from(shapes))
        values = np.resize(draw(st.lists(_VALUES, min_size=1, max_size=8)), hours)
        base, _ = parse_quantity(fullq)
        if base == "availability_factor":
            values = np.minimum(values, 1.0)
        out[(country, fullq)] = HourlySeries(country, base, start, values)
    return out


@given(_series_maps())
@settings(max_examples=40, deadline=None)
def test_emit_csv_matches_row_at_a_time_writer(series_map):
    _assert_same_text(emit_csv(series_map), _reference_csv(series_map))


@pytest.mark.parametrize("start", _STARTS)
def test_emit_csv_matches_row_at_a_time_writer_over_20000_hours(start):
    values = np.resize([-0.0, 5e-324, 1e-5, 1e16, 0.1 + 0.2, 7.25], 20_000)
    series_map = {("FR", "electric_load_MW"): HourlySeries("FR", "electric_load_MW", start, values)}
    _assert_same_text(emit_csv(series_map), _reference_csv(series_map))


def test_csv_chunks_are_the_header_then_one_per_series():
    series_map = synth_profiles(5, ["DE", "CH"], 24)
    chunks = list(csv_chunks(series_map))
    assert chunks[0] == HEADER
    assert len(chunks) == len(series_map) + 1
    assert all(chunk.count("\n") == 24 for chunk in chunks[1:])
    _assert_same_text("".join(chunks), _reference_csv(series_map))


@pytest.mark.parametrize("start", _STARTS)
def test_window_july_june_agrees_with_emit_csv(start):
    # A window's own canonical lines are the lines the whole series emits
    # from that window's July 1 on, hour for hour.
    key = ("FR", "electric_load_MW")
    ser = HourlySeries("FR", key[1], start, np.arange(30_000.0))
    lines = emit_csv({key: ser}).splitlines()
    years = [year for year in range(start.year, start.year + 3) if utc(year, 7, 1) >= start]
    assert len(years) >= 2
    for year in years:
        window = emit_csv({key: window_july_june(ser, year)}).splitlines()[1:]
        first = next(k for k, line in enumerate(lines) if line.startswith(f"{year}-07-01T00:00:00Z,"))
        _assert_same_text("\n".join(window), "\n".join(lines[first : first + 8760]))
