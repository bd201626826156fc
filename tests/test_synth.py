"""Synthetic profile generator: determinism, invariants, seasonal shape."""

import numpy as np
import pytest

from desk import assert_window_of_flat_map
from heatgrid.dataset import build_ingested_dataset, build_synth_dataset
from heatgrid.scenarios import make_instance, specs_for_selector
from heatgrid.synth import synth_profiles


def test_same_seed_same_output():
    a = synth_profiles(1, ["DE", "FR"], 48)
    b = synth_profiles(1, ["DE", "FR"], 48)
    assert sorted(a) == sorted(b)
    for key in a:
        np.testing.assert_array_equal(a[key].values, b[key].values)


def test_different_seed_differs():
    a = synth_profiles(1, ["DE"], 48)
    b = synth_profiles(2, ["DE"], 48)
    assert any((a[k].values != b[k].values).any() for k in a)


def test_availability_within_unit_interval():
    bundle = synth_profiles(1, ["DE", "AT", "FR"], 48)
    for (country, fullq), ser in bundle.items():
        if fullq.startswith("availability_factor"):
            assert ser.values.min() >= 0.0
            assert ser.values.max() <= 1.0


def test_all_series_pass_standard_validators():
    # Construction runs the HourlySeries validators; an ingested dataset checks
    # each country's load and alignment. Reaching the end without raising is the assertion.
    ds = build_ingested_dataset(synth_profiles(3, ["DE", "CH", "LU"], 72), [2009])
    assert sorted({country for country, _ in ds.series[2009]}) == ["CH", "DE", "LU"]


def test_winter_heat_demand_exceeds_summer():
    # Full July-June year; winter half = October through March.
    bundle = synth_profiles(1, ["DE"], 8760)
    total = np.zeros(8760)
    for (c, fullq), ser in bundle.items():
        if fullq.startswith("heat_demand_MWth"):
            total += ser.values
    oct1 = 92 * 24  # days July+August+September
    apr1 = oct1 + 182 * 24  # plus October..March
    winter_mean = total[oct1:apr1].mean()
    summer_mean = np.concatenate([total[:oct1], total[apr1:]]).mean()
    assert winter_mean > summer_mean


def test_switzerland_has_no_heat_rollout():
    bundle = synth_profiles(1, ["CH", "DE"], 24)
    ch_heat = [k for k in bundle if k[0] == "CH" and k[1].startswith("heat_demand")]
    de_heat = [k for k in bundle if k[0] == "DE" and k[1].startswith("heat_demand")]
    assert not ch_heat
    assert len(de_heat) == 6


def test_minimum_hours():
    with pytest.raises(ValueError):
        synth_profiles(1, ["DE"], 12)


def test_repeated_country_is_refused():
    # A second DE would overwrite the first's series under the same keys.
    with pytest.raises(ValueError, match="country DE is listed more than once"):
        synth_profiles(7, ["DE", "AT", "DE"], 24)


def test_synth_dataset_structure():
    ds = build_synth_dataset(9, ["AT", "DE"], [2009, 2010], 48)
    assert ds.years == [2009, 2010]
    assert all(sorted({country for country, _ in ds.series[y]}) == ["AT", "DE"] for y in ds.years)
    windowed = make_instance(ds, specs_for_selector("base", [2010], 24)[0], 2010)
    assert len(windowed.loads_mw["DE"]) == 24
    # NTC is symmetric between adjacent synthetic countries.
    assert ds.ntc.get("AT", "DE") == ds.ntc.get("DE", "AT") > 0
    # Identical parameters give an identical provenance hash.
    ds2 = build_synth_dataset(9, ["AT", "DE"], [2009, 2010], 48)
    assert ds2.provenance == ds.provenance
    ds3 = build_synth_dataset(10, ["AT", "DE"], [2009, 2010], 48)
    assert ds3.provenance != ds.provenance


def test_synth_dataset_provenance_and_windows():
    countries = ["AT", "DE", "FR"]
    ds = build_synth_dataset(7, countries, [2009, 2010], 48)
    # The hash covers the canonical CSV bytes of each year's series map; the digest is pinned.
    assert ds.provenance == "a9d59c2633ec2e0d2cae46b504aa44a99b42bb3083eeb82d3df13ec62750a9f3"
    for year in ds.years:
        for hours in (24, 48):
            assert_window_of_flat_map(ds, year, hours, synth_profiles(7, countries, 48, start_year=year))


def test_provenance_is_pinned():
    # Hashes of the canonical bytes; any change to them must show here.
    ds = build_synth_dataset(7, ["AT", "DE", "FR"], [2009], 336)
    assert ds.provenance == "73c987cdc0a9aba36c1bb79c17c64c9276e8394f02f9131d89d31036c0272aa8"
    ds = build_synth_dataset(9, ["AT", "DE"], [2009, 2010], 48)
    assert ds.provenance == "fe3bd2cc7df55e5ff95a43541598372351df2718c115b0f247a66196cdd2f50f"
