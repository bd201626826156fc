"""Bundled dataset fidelity: every table cell, byte round trips, quirks.

The expected values below are an independent transcription of the source
cost/bounds tables; the test fails if the bundled YAML drifts from them
in any cell.
"""

import math
import re
from dataclasses import replace

import pytest
import yaml

from heatgrid.staticdata import (
    Bounds,
    InfeasibleBounds,
    NtcMatrix,
    StaticDataError,
    bundled_static_path,
    emit_static,
    load_fleet_table,
    load_static,
    _normalize_pair,
)

INF = float("inf")

# Technology -> (lifetime, availability, overnight, fixed, efficiency, carbon, fuel)
GENERATION_TABLE = {
    "ccgt": (25, 0.96, 830, 28, 0.61, 0.20, 26.0),
    "bioenergy": (25, 1.00, 900, 9, 0.45, 0.00, 10.0),
    "hard_coal": (35, 0.96, 1300, 30, 0.43, 0.34, 10.1),
    "lignite": (35, 0.95, 1500, 30, 0.38, 0.40, 4.0),
    "nuclear": (40, 0.91, 6000, 30, 0.34, 0.00, 1.7),
    "oil": (25, 0.90, 400, 7, 0.35, 0.27, 41.7),
    "other": (30, 0.90, 1500, 30, 0.35, 0.35, 18.1),
    "solar_pv": (40, 1.00, 597, 10, 1.00, 0.00, 0.0),
    "wind_onshore": (50, 1.00, 3000, 30, 0.90, 0.00, 0.0),
    "wind_offshore": (30, 1.00, 1795, 39, 1.00, 0.00, 0.0),
    "run_of_river": (30, 1.00, 1036, 13, 1.00, 0.00, 0.0),
}

# Storage row -> (lifetime, availability, energy, charge, discharge,
#                 eff_charge, eff_discharge, mc_charge, mc_discharge)
STORAGE_TABLE = {
    "li_ion": (20, 0.98, 300, 50, 10, 0.97, 0.97, 0.3, 0.3),
    "p2g2p": (23, 0.95, 0.2, 305, 850, 0.73, 0.6, 1.2, 1.2),
    "phs": (80, 0.98, 10, 550, 550, 0.97, 0.91, 0.56, 0.56),
    "reservoir": (50, 0.98, 10, 200, None, 1.00, 0.95, 0, 0.1),
}

# Country columns in source order: AT BE DK FR DE IT LU NL CH.
COUNTRY_ORDER = ["AT", "BE", "DK", "FR", "DE", "IT", "LU", "NL", "CH"]

BOUNDS_TABLE = {
    "ccgt": [(4.0, INF), (8.1, INF), (4.0, INF), (7.2, INF), (25.4, INF), (40.5, INF), (0, INF), (12.4, INF), (0, INF)],
    "oil": [(0, 0.16), (0, 0.2), (0, 2.5), (0, 1.3), (0, 1.0), (0, 0), (0, 0), (0, 0), (0, 0)],
    "other": [(0, 0.96), (0, 1.4), (0, 1.3), (0, 5.7), (0, 8.8), (0, 6.4), (0, 0.1), (0, 4.2), (0, 0.6)],
    "hard_coal": [(0, 0), (0, 0), (1.2, 1.2), (0, 0), (12.3, 12.3), (0, 0), (0, 0), (2.7, 2.7), (0, 0)],
    "lignite": [(0, 0), (0, 0), (0, 0), (0, 0), (14.6, 14.5), (0, 0), (0, 0), (0, 0), (0, 0)],
    "nuclear": [(0, 0), (0, 0), (0, 0), (61.8, 61.8), (0, 0), (0, 0), (0, 0), (0.5, 0.5), (2.2, 2.2)],
    "bioenergy": [(0.6, 0.6), (0.9, 0.9), (6.8, 6.8), (2.3, 2.3), (7.2, 7.2), (4.5, 4.5), (0.08, 0.08), (1.9, 1.9), (0.4, 0.4)],
    "run_of_river": [(6.1, 6.1), (0.1, 0.1), (0, 0), (13.6, 13.6), (4.7, 4.7), (6.2, 6.2), (0.04, 38), (0.04, 0.04), (4.2, 4.2)],
    "solar_pv": [(5.0, INF), (7.5, INF), (15.4, INF), (18.2, INF), (74.5, INF), (28.6, INF), (0.3, INF), (18.7, INF), (5.5, INF)],
    "wind_onshore": [(5.5, INF), (3.6, INF), (16.4, INF), (24.1, INF), (64.0, INF), (15.7, INF), (0.3, INF), (6.0, INF), (0.2, INF)],
    "wind_offshore": [(0, INF), (2.3, INF), (10.0, INF), (2.5, INF), (11.1, INF), (0.3, INF), (0, INF), (5.9, INF), (0, INF)],
    "li_ion_power_in_out": [(0, INF)] * 9,
    "li_ion_energy_gwh": [(0, INF)] * 9,
    "p2g2p_power_in_out": [(0, INF)] * 9,
    "p2g2p_energy_gwh": [(0, INF)] * 9,
    "phs_closed_power_in": [(0.3, 0.3), (1.2, 1.2), (0, 0), (2.0, 2.0), (7.4, 7.4), (7.4, 7.4), (1.0, 1.0), (0, 0), (1.9, 1.9)],
    "phs_closed_power_out": [(0.3, 0.3), (1.2, 1.2), (0, 0), (2.0, 2.0), (7.4, 7.4), (7.3, 7.3), (1.3, 1.3), (0, 0), (1.9, 1.9)],
    "phs_closed_energy_gwh": [(1.8, 1.8), (5.3, 5.3), (0, 0), (10, 10), (242, 242), (70.4, 70.4), (5.0, 5.0), (0, 0), (70, 70)],
    "phs_open_power_in": [(5.2, 5.2), (0, 0), (0, 0), (1.9, 1.9), (1.4, 1.4), (2.1, 2.1), (0, 0), (0, 0), (2.1, 2.1)],
    "phs_open_power_out": [(6.0, 6.0), (0, 0), (0, 0), (1.9, 1.9), (1.6, 1.6), (3.3, 3.3), (0, 0), (0, 0), (10.7, 10.7)],
    "phs_open_energy_gwh": [(1732, 1732), (0, 0), (0, 0), (90, 90), (417, 417), (309, 309), (0, 0), (0, 0), (8800, 8800)],
    "reservoir_power_out": [(2.5, 2.5), (0, 0), (0, 0), (8.9, 8.9), (1.3, 1.3), (9.6, 9.6), (0, 0), (0, 0), (0, 0)],
    "reservoir_energy_twh": [(0.8, 0.8), (0, 0), (0, 0), (10, 10), (0.2, 0.2), (5.6, 5.6), (0, 0), (0, 0), (0, 0)],
}

FLEET_TABLE = {
    "AT": (5.5, 11.0, 3.5),
    "BE": (8.8, 17.7, 5.1),
    "CH": (0.0, 0.0, 0.0),
    "DE": (63.8, 127.5, 39.7),
    "DK": (3.9, 7.8, 1.9),
    "FR": (41.1, 82.2, 20.9),
    "IT": (29.2, 58.4, 13.9),
    "LU": (0.7, 1.3, 0.4),
    "NL": (12.5, 25.0, 6.8),
    "All": (165.4, 330.9, 92.0),
}


def test_generation_cells_verbatim():
    raw = load_static().raw["generation"]
    assert set(raw) == set(GENERATION_TABLE)
    for tech, (life, avail, on, fix, eff, carb, fuel) in GENERATION_TABLE.items():
        row = raw[tech]
        assert row["interest_rate"] == 0.04
        assert row["lifetime_yr"] == life
        assert row["availability"] == avail
        assert row["overnight_cost_keur_per_mw"] == on
        assert row["fixed_cost_keur_per_mw_yr"] == fix
        assert row["efficiency"] == eff
        assert row["carbon_content_t_per_mwh_fuel"] == carb
        assert row["fuel_cost_eur_per_mwh_fuel"] == fuel


def test_storage_cells_verbatim():
    raw = load_static().raw["storage"]
    assert set(raw) == set(STORAGE_TABLE)
    for name, (life, avail, en, chg, dis, ec, ed, mc, md) in STORAGE_TABLE.items():
        row = raw[name]
        assert row["interest_rate"] == 0.04
        assert row["lifetime_yr"] == life
        assert row["availability"] == avail
        assert row["overnight_cost_energy_keur_per_mwh"] == en
        assert row["overnight_cost_charge_keur_per_mw"] == chg
        assert row["overnight_cost_discharge_keur_per_mw"] == dis
        assert row["efficiency_charge"] == ec
        assert row["efficiency_discharge"] == ed
        assert row["marginal_cost_charge_eur_per_mwh"] == mc
        assert row["marginal_cost_discharge_eur_per_mwh"] == md


def test_bounds_cells_verbatim():
    raw = load_static().raw["capacity_bounds_gw"]
    assert set(raw) == set(COUNTRY_ORDER)
    for key, cells in BOUNDS_TABLE.items():
        for country, (low, up) in zip(COUNTRY_ORDER, cells):
            cell = raw[country][key]
            assert cell["low"] == low, (country, key)
            if math.isinf(up):
                assert math.isinf(cell["up"]), (country, key)
            else:
                assert cell["up"] == up, (country, key)


def test_static_yaml_byte_round_trip():
    path = bundled_static_path()
    original = path.read_text()
    assert emit_static(load_static().raw) == original


# One extra top-level entry per case, appended to a copy of the bundled file.
# The strings "yes", "no" and "true" must be quoted on emit, or YAML 1.1 reads
# them back as booleans; PyYAML reads "1e-05" (no dot) as a string and emits
# the float 1e-05 as 1.0e-05.
EXTRA_ENTRIES = {
    "bundled": None,
    "long_string": ("heat pumps in the grid " * 14)[:300],
    "non_ascii": "Zürich – Ελλάδα – 北京 ☀",
    "floats": [float("inf"), float("-inf"), -0.0, 1e-05, "1e-05"],
    "none": None,
    "booleans": [True, False, "yes", "no", "true"],
    "multi_line": "first line\nsecond line\n  indented third\n",
}
CANONICAL = dict(sort_keys=True, default_flow_style=False, width=100)


@pytest.mark.parametrize("case", EXTRA_ENTRIES)
def test_libyaml_and_pure_python_yaml_agree(tmp_path, case):
    # Provenance hashes emit_static's bytes, so they must not depend on
    # whether PyYAML was built with libyaml.
    text = bundled_static_path().read_text()
    if case != "bundled":
        text += yaml.dump({f"zz_{case}": EXTRA_ENTRIES[case]}, Dumper=yaml.SafeDumper, allow_unicode=True)
    path = tmp_path / "static.yaml"
    path.write_text(text)
    reference = yaml.load(text, Loader=yaml.SafeLoader)
    canonical = yaml.dump(reference, Dumper=yaml.SafeDumper, **CANONICAL)
    raw = load_static(path).raw
    assert raw == reference and emit_static(raw) == canonical
    if not yaml.__with_libyaml__:
        pytest.skip("PyYAML is built without libyaml")
    fast = yaml.load(text, Loader=yaml.CSafeLoader)
    assert fast == reference
    assert yaml.dump(fast, Dumper=yaml.CSafeDumper, **CANONICAL) == canonical


def test_fleet_table_verbatim_and_round_trip():
    assert load_fleet_table() == FLEET_TABLE


def test_phs_cost_row_parameterizes_both_variants():
    static = load_static()
    closed, open_ = static.storages["phs_closed"], static.storages["phs_open"]
    assert closed.lifetime_yr == open_.lifetime_yr == 80
    assert closed.efficiency_discharge == open_.efficiency_discharge == 0.91


def test_de_lignite_print_contradiction_is_pinned_at_lower():
    # The table prints lower 14.6 / upper 14.5 GW; lignite is a pinned
    # technology, so the normalizer treats that as fixed at 14.6 GW.
    b = load_static().bounds.gen("DE", "lignite")
    assert b == Bounds(14600.0, 14600.0)


def test_normalize_rejects_genuine_contradictions():
    with pytest.raises(InfeasibleBounds):
        _normalize_pair(5000.0, 1000.0, "made-up")


@pytest.mark.parametrize("low, up", [(math.nan, 1000.0), (0.0, math.nan), (math.nan, math.nan), (-1.0, 1000.0)])
def test_bounds_refuse_nan_and_negative_lower_bounds(low, up):
    with pytest.raises(StaticDataError):
        Bounds(low, up)
    with pytest.raises(StaticDataError, match=r"^DE/li_ion_power_in_out: lower"):
        _normalize_pair(low, up, "DE/li_ion_power_in_out")


def test_lu_run_of_river_is_preserved_as_printed():
    # 0.04 GW lower vs 38 GW upper: striking but reproduced verbatim.
    b = load_static().bounds.gen("LU", "run_of_river")
    assert b.low == 40.0 and b.up == 38000.0


def test_bounds_units_are_normalized_to_mw_mwh():
    static = load_static()
    assert static.bounds.sto_energy("AT", "phs_open") == Bounds(1732e3, 1732e3)
    assert static.bounds.sto_energy("FR", "reservoir") == Bounds(10e6, 10e6)  # TWh -> MWh
    assert static.bounds.sto_in("DE", "li_ion").up == INF
    assert static.bounds.sto_in("AT", "reservoir") == Bounds(0.0, 0.0)  # no pumping


@pytest.mark.parametrize(
    "spec, field, value, message",
    [
        ("ccgt", "interest_rate", -0.01, "ccgt: interest rate -0.01 < 0"),
        ("li_ion", "interest_rate", -0.01, "li_ion: interest rate -0.01 < 0"),
        ("li_ion", "lifetime_yr", 0.5, "li_ion: lifetime 0.5 < 1"),
        ("li_ion", "availability", 1.5, "li_ion: availability 1.5 not in (0,1]"),
        ("li_ion", "availability", 0.0, "li_ion: availability 0.0 not in (0,1]"),
    ],
)
def test_specs_refuse_what_annuity_and_the_model_cannot_take(spec, field, value, message):
    static = load_static()
    bundled = static.technologies.get(spec) or static.storages[spec]
    with pytest.raises(StaticDataError, match=re.escape(message)):
        replace(bundled, **{field: value})


def test_ntc_refuses_a_self_link():
    with pytest.raises(StaticDataError, match="NTC DE->DE links a country to itself"):
        NtcMatrix({("AT", "DE"): 500.0, ("DE", "DE"): 500.0})
