"""The array-built LP: family catalog, folded bounds, cancelled and dropped entries."""

import dataclasses

import numpy as np
import pytest

from desk import TECH_CATALOG, heat_block, instance, random_desk_instance, tech
from heatgrid import lp as lp_module
from heatgrid.dataset import build_synth_dataset
from heatgrid.model import build_model, prorate_fixed_costs
from heatgrid.scenarios import ScenarioSpec, persist_result, run_cell
from heatgrid.solver import solve, verify
from heatgrid.staticdata import Bounds, BoundsTable, StorageSpec

INF = float("inf")

BATTERY = StorageSpec(
    name="li_ion",
    interest_rate=0.04,
    lifetime_yr=15,
    availability=0.9,
    overnight_cost_energy_keur_per_mwh=150.0,
    overnight_cost_charge_keur_per_mw=60.0,
    overnight_cost_discharge_keur_per_mw=60.0,
    efficiency_charge=0.95,
    efficiency_discharge=0.92,
    marginal_cost_charge_eur_per_mwh=0.5,
    marginal_cost_discharge_eur_per_mwh=0.5,
)


def with_battery(inst, power_in=(0.0, INF), power_out=(0.0, INF), energy=(0.0, INF)):
    """`inst` plus a battery in every country, with the given MW / MWh bounds."""
    bounds = BoundsTable(
        gen_mw=inst.bounds.gen_mw,
        storage_power_in_mw={(c, "li_ion"): Bounds(*power_in) for c in inst.countries},
        storage_power_out_mw={(c, "li_ion"): Bounds(*power_out) for c in inst.countries},
        storage_energy_mwh={(c, "li_ion"): Bounds(*energy) for c in inst.countries},
    )
    return dataclasses.replace(inst, storages={"li_ion": BATTERY}, bounds=bounds)


def ccgt_instance(loads, heat=None, **kw):
    return instance(
        "cat",
        loads_mw={"DE": np.asarray(loads, dtype=float)},
        techs={"ccgt": TECH_CATALOG["ccgt"]},
        gen_bounds={("DE", "ccgt"): (0.0, INF)},
        heat=heat,
        **kw,
    )


def row_terms(lp, row):
    start, end = lp.matrix().indptr[row], lp.matrix().indptr[row + 1]
    return dict(zip(lp.matrix().indices[start:end].tolist(), lp.matrix().data[start:end].tolist()))


def test_one_hour_window_cyclic_rows_cancel_their_self_terms():
    hb = heat_block("DE", share=0.25, ep=2.0, hd_values=[1600.0], cop_values=[2.5])
    inst = with_battery(ccgt_instance([1000.0], heat=hb))
    lp = build_model(inst)
    key = ("DE", "li_ion")
    soc, dis, ch = (lp.col_family(f).member(key)[0] for f in ("soc", "dis", "ch"))
    (sdyn,) = lp.row_families["sdyn"].member(key)
    # soc[0] and its cyclic predecessor soc[-1] are one column: +1 and -1 sum
    # to a stored zero, and every other term keeps its coefficient.
    assert row_terms(lp, sdyn) == {soc: 0.0, dis: 1.0 / 0.92, ch: -0.95}
    unit = ("DE", "single_family", "space", "air")
    hl, hi, ho = (lp.col_family(f).member(unit)[0] for f in ("hl", "hi", "ho"))
    (hdyn,) = lp.row_families["hdyn"].member(unit)
    assert row_terms(lp, hdyn) == {hl: 0.0, hi: -1.0, ho: 1.0}
    assert lp.rows[sdyn] == sorted(row_terms(lp, sdyn).items())
    sol = solve(lp)
    assert sol.status == "optimal"
    assert verify(lp, sol).max_violation <= 1e-7


def test_zero_availability_factor_leaves_no_gcap_entry():
    pv = tech("solar_pv", varcost_fuel=0.0, overnight=597, fixed=10, tech_class="variable_renewable")
    factors = np.array([0.0, 0.5, 0.0, 1.0])
    inst = instance(
        "pv",
        loads_mw={"DE": np.array([800.0, 900.0, 1000.0, 700.0])},
        techs={"ccgt": TECH_CATALOG["ccgt"], "solar_pv": pv},
        gen_bounds={("DE", "ccgt"): (0.0, INF), ("DE", "solar_pv"): (0.0, INF)},
        availability={("DE", "solar_pv"): factors},
    )
    lp = build_model(inst)
    key = ("DE", "solar_pv")
    cap = lp.col_family("cap").member(key)
    gen = lp.col_family("gen").member(key)
    rows = lp.row_families["gcap"].member(key)
    for h, f in enumerate(factors):
        want = {int(gen[h]): 1.0} if f == 0.0 else {int(gen[h]): 1.0, int(cap): -f}
        assert row_terms(lp, rows[h]) == want


def test_pinned_capacities_fold_into_bounds():
    inst = instance(
        "pinned",
        loads_mw={"DE": np.array([1500.0, 1200.0, 1800.0])},
        techs={"ccgt": TECH_CATALOG["ccgt"], "nuclear": TECH_CATALOG["nuclear"]},
        gen_bounds={("DE", "ccgt"): (0.0, INF), ("DE", "nuclear"): (1000.0, 1000.0)},
    )
    inst = with_battery(inst, power_in=(200.0, 200.0), power_out=(300.0, 300.0), energy=(800.0, 800.0))
    lp = build_model(inst)
    hi = lp.col_hi
    nuclear = ("DE", "nuclear")
    assert lp.row_families["gcap"].member(nuclear) is None
    assert lp.row_families["gcap"].member(("DE", "ccgt")) is not None
    assert (hi[lp.col_family("gen").member(nuclear)] == 0.91 * 1.0).all()
    key = ("DE", "li_ion")
    for family in ("sin", "sout", "scap"):
        assert family not in lp.row_families
    for family, want in (("ch", 0.9 * 200.0 / 1e3), ("dis", 0.9 * 300.0 / 1e3), ("soc", 0.8)):
        assert (hi[lp.col_family(family).member(key)] == want).all()
    for family, want in (("scc", 0.2), ("scd", 0.3), ("sce", 0.8)):
        idx = lp.col_family(family).member(key)
        assert lp.col_lo[idx] == hi[idx] == want
    assert solve(lp).status == "optimal"


def test_bio_row_covers_exactly_the_bioenergy_generation_columns():
    bio = tech("bioenergy", varcost_fuel=30.0, efficiency=0.4, overnight=2500, fixed=60)
    loads = {"DE": np.array([1000.0, 1100.0, 900.0]), "FR": np.array([800.0, 700.0, 900.0])}
    inst = instance(
        "bio",
        loads_mw=loads,
        techs={"ccgt": TECH_CATALOG["ccgt"], "bioenergy": bio},
        gen_bounds={
            ("DE", "ccgt"): (0.0, INF), ("FR", "ccgt"): (0.0, INF),
            ("DE", "bioenergy"): (0.0, INF), ("FR", "bioenergy"): (0.0, 0.0),
        },
        bio_caps={"DE": 4.0e6, "FR": 1.0e6},
    )
    lp = build_model(inst)
    assert lp.row_families["bio"].keys == [("DE",)]  # FR has no bioenergy plant
    row = lp.row_families["bio"].member(("DE",))
    cols = lp.col_family("gen").member(("DE", "bioenergy"))
    assert row_terms(lp, row) == {int(c): 1.0 for c in cols}
    assert sorted(cols.tolist()) == [lp.col(f"gen[DE,bioenergy,{h}]") for h in range(3)]
    assert lp.row_sense[row] == "L"
    assert lp.row_rhs[row] == prorate_fixed_costs(4.0e6, 3) / 1e3


def catalog_instances():
    hb = heat_block("DE", share=0.25, ep=2.0, hd_values=[1600.0, 900.0, 1200.0], cop_values=[2.5, 2.8, 2.2])
    yield with_battery(ccgt_instance([1000.0, 800.0, 1300.0], heat=hb))
    yield with_battery(ccgt_instance([1000.0], heat=heat_block("DE", 0.25, 2.0, [900.0], [2.0])))
    for seed in range(12):
        yield random_desk_instance(seed)


@pytest.mark.parametrize("inst", list(catalog_instances()), ids=lambda inst: inst.name)
def test_catalog_indices_names_and_lookup_agree(inst):
    lp = build_model(inst)
    for families, names, count in (
        (lp.col_families, lp.col_names, lp.num_cols),
        (lp.row_families, lp.row_names, lp.num_rows),
    ):
        covered = np.concatenate([fam.index.ravel() for fam in families.values()])
        assert sorted(covered.tolist()) == list(range(count))  # every entry in one family
        for name, fam in families.items():
            idx = fam.index.ravel().tolist()
            assert [names[i] for i in idx] == fam.names()
            assert all(n.startswith(f"{name}[") for n in fam.names())
            assert fam.index.shape == (len(fam.keys),) + ((fam.hours,) if fam.hours else ())
    for fam in lp.col_families.values():
        assert [lp.col(n) for n in fam.names()] == fam.index.ravel().tolist()


def test_a_scenario_cell_never_builds_names(monkeypatch, tmp_path):
    def names(self):
        raise AssertionError(f"names of family {self.name!r} built during a cell")

    monkeypatch.setattr(lp_module.Family, "names", names)
    dataset = build_synth_dataset(3, ["AT", "DE"], [2009], 24)
    spec = ScenarioSpec("base-hp25-ep2", 0.25, 2.0, "base", [2009], 24)
    result = run_cell(dataset, spec, 2009)
    assert result.ok, result.error
    persist_result(result, tmp_path)
