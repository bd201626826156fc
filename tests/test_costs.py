"""Cost arithmetic: annuity, marginal generation cost, proration, the cost breakdown."""

import dataclasses

import numpy as np
import pytest

from desk import random_desk_instance
from heatgrid.dataset import build_synth_dataset
from heatgrid.ids import COUNTRIES
from heatgrid.model import (
    CAPACITIES,
    EUR_PER_KEUR_MW,
    MW_PER_GW,
    annuity,
    build_model,
    capacity_costs,
    extract_solved,
    prorate_fixed_costs,
    variable_cost,
)
from heatgrid.scenarios import make_instance, specs_for_selector
from heatgrid.solver import solve
from heatgrid.staticdata import Bounds, BoundsTable, load_static

INF = float("inf")


def pv_sum_annuity(overnight, rate, lifetime):
    """Independent oracle: overnight / sum of discount factors."""
    factors = sum(1.0 / (1.0 + rate) ** t for t in range(1, lifetime + 1))
    return overnight / factors


@pytest.mark.parametrize(
    "overnight,rate,lifetime",
    [(1500.0, 0.04, 35), (597.0, 0.04, 40), (830.0, 0.04, 25), (6000.0, 0.04, 40)],
)
def test_annuity_matches_present_value_sum(overnight, rate, lifetime):
    assert annuity(overnight, rate, lifetime) == pytest.approx(
        pv_sum_annuity(overnight, rate, lifetime), rel=1e-12
    )


def test_annuity_anchor_values():
    # Hand-evaluated closed form (spreadsheet-checked).
    assert annuity(1500.0, 0.04, 35) == pytest.approx(80.36, abs=0.01)
    assert annuity(597.0, 0.04, 40) == pytest.approx(30.17, abs=0.01)


def test_annuity_zero_interest_limit():
    assert annuity(1000.0, 0.0, 25) == pytest.approx(40.0)
    assert annuity(123.0, 0.0, 10) == pytest.approx(12.3)


def test_annuity_rejects_bad_inputs():
    with pytest.raises(ValueError):
        annuity(100.0, 0.04, 0.5)
    with pytest.raises(ValueError):
        annuity(100.0, -0.01, 10)


def test_variable_cost_anchors_at_150_per_ton():
    static = load_static()
    ccgt = variable_cost(static.technologies["ccgt"], 150.0)
    lignite = variable_cost(static.technologies["lignite"], 150.0)
    # (26 + 150*0.20)/0.61 and (4.0 + 150*0.40)/0.38, hand arithmetic.
    assert ccgt == pytest.approx((26.0 + 150.0 * 0.20) / 0.61, rel=1e-12)
    assert ccgt == pytest.approx(91.80, abs=0.01)
    assert lignite == pytest.approx((4.0 + 150.0 * 0.40) / 0.38, rel=1e-12)
    assert lignite == pytest.approx(168.4, abs=0.1)


def test_variable_cost_zero_for_fuel_free_tech():
    static = load_static()
    assert variable_cost(static.technologies["solar_pv"], 150.0) == 0.0
    assert variable_cost(static.technologies["wind_onshore"], 500.0) == 0.0


def test_variable_cost_monotone_in_co2_price():
    static = load_static()
    for tech in static.technologies.values():
        lo = variable_cost(tech, 50.0)
        hi = variable_cost(tech, 250.0)
        assert hi >= lo


def test_prorate_fixed_costs():
    assert prorate_fixed_costs(80.36, 8760) == pytest.approx(80.36)
    assert prorate_fixed_costs(80.36, 4380) == pytest.approx(40.18)
    assert prorate_fixed_costs(0.0, 123) == 0.0
    with pytest.raises(ValueError):
        prorate_fixed_costs(1.0, 0)
    with pytest.raises(ValueError):
        prorate_fixed_costs(1.0, 9000)


def bounds_cost_breakdown(instance, caps, gen, ch, dis):
    """The cost breakdown as the bounds decided it, before it walked the LP's capacities: the reference."""
    H = instance.window.hours
    invest = fixed_om = var = marginal = 0.0
    for c in sorted(instance.countries):
        for g in sorted(instance.techs):
            spec = instance.techs[g]
            b = instance.bounds.gen(c, g)
            if b.up == 0.0:
                continue
            cap_gw = caps[c].get(("generation", g), b.low) / MW_PER_GW
            if b.pinned:
                fixed_om += (
                    prorate_fixed_costs(spec.fixed_cost_keur_per_mw_yr, H)
                    * EUR_PER_KEUR_MW * (b.low / MW_PER_GW)
                )
            else:
                ann = annuity(spec.overnight_cost_keur_per_mw, spec.interest_rate, spec.lifetime_yr)
                invest += prorate_fixed_costs(ann, H) * EUR_PER_KEUR_MW * cap_gw
                fixed_om += prorate_fixed_costs(spec.fixed_cost_keur_per_mw_yr, H) * EUR_PER_KEUR_MW * cap_gw
            series = gen.get((c, g))
            if series is not None:
                var += variable_cost(spec, instance.co2_price) * float(series.sum())
        for s in sorted(instance.storages):
            spec = instance.storages[s]
            b_in = instance.bounds.sto_in(c, s)
            b_out = instance.bounds.sto_out(c, s)
            b_en = instance.bounds.sto_energy(c, s)
            if b_out.up == 0.0 and b_en.up == 0.0:
                continue
            for b, kind, overnight in (
                (b_en, "storage_energy", spec.overnight_cost_energy_keur_per_mwh),
                (b_in, "storage_charge", spec.overnight_cost_charge_keur_per_mw),
                (b_out, "storage_discharge", spec.overnight_cost_discharge_keur_per_mw),
            ):
                if b.pinned or (kind == "storage_charge" and b_in.up == 0.0):
                    continue
                cap_gw = caps[c].get((kind, s), 0.0) / MW_PER_GW
                ann = annuity(overnight or 0.0, spec.interest_rate, spec.lifetime_yr)
                invest += prorate_fixed_costs(ann, H) * EUR_PER_KEUR_MW * cap_gw
            charge = ch.get((c, s))
            if charge is not None:
                marginal += spec.marginal_cost_charge_eur_per_mwh * float(charge.sum())
            disch = dis.get((c, s))
            if disch is not None:
                marginal += spec.marginal_cost_discharge_eur_per_mwh * float(disch.sum())
    total = invest + fixed_om + var + marginal
    return {"investment": invest, "fixed_om": fixed_om, "variable": var, "storage_marginal": marginal, "total": total}


def assert_breakdown_matches_reference(instance):
    lp = build_model(instance)
    solved = extract_solved(instance, lp, solve(lp))
    gen, ch, dis = ({(c, name): arr for (c, kind, name), arr in solved.dispatch_mw.items() if kind == k}
                    for k in ("generation", "charge", "discharge"))
    expected = bounds_cost_breakdown(instance, solved.capacities_mw, gen, ch, dis)
    assert {k: solved.costs_eur[k].hex() for k in expected} == {k: v.hex() for k, v in expected.items()}
    return solved


@pytest.mark.parametrize("seed", range(10))
def test_breakdown_of_desk_instances_matches_bounds_reference(seed):
    assert_breakdown_matches_reference(random_desk_instance(seed))


def bundled_bounds_dataset(seed, hours):
    """Synthetic series of all nine countries under the bundled bounds, NTC and bioenergy caps."""
    dataset = build_synth_dataset(seed, list(COUNTRIES), [2009], hours)
    static = dataset.static
    return dataclasses.replace(dataset, bounds=static.bounds, ntc=static.ntc,
                               bioenergy_cap_mwh_yr=static.bioenergy_cap_mwh_yr)


def test_breakdown_of_synthetic_cells_matches_bounds_reference():
    dataset = build_synth_dataset(5, ["AT", "DE", "FR"], [2009], 24)
    for spec in specs_for_selector("all", [2009], 24):
        instance = make_instance(dataset, spec, 2009)
        caps = assert_breakdown_matches_reference(instance).capacities_mw
        # The cells hold what the bounds once decided: FR's open PHS and its
        # reservoir without charge capacity, and technologies absent in AT and DE.
        assert ("storage_discharge", "phs_open") in caps["FR"]
        assert ("storage_energy", "reservoir") in caps["FR"] and ("storage_charge", "reservoir") not in caps["FR"]
        for c in ("AT", "DE"):
            absent = [g for g in instance.techs if instance.bounds.gen(c, g).up == 0.0]
            assert absent and not any(("generation", g) in caps[c] for g in absent)
    # The same for the nine countries under the bundled bounds: AT pumps no
    # water into its reservoir, and DE has no nuclear.
    dataset = bundled_bounds_dataset(5, 24)
    for spec in specs_for_selector("all", [2009], 24):
        caps = assert_breakdown_matches_reference(make_instance(dataset, spec, 2009)).capacities_mw
        assert ("storage_discharge", "reservoir") in caps["AT"] and ("storage_charge", "reservoir") not in caps["AT"]
        assert ("generation", "nuclear") not in caps["DE"] and ("generation", "nuclear") in caps["FR"]


def varied_storage_bounds(instance):
    """`instance` with its storage capacities pinned, free, capped and absent in turn."""
    turns = (Bounds(800.0, 800.0), Bounds(0.0, INF), Bounds(0.0, 1600.0), Bounds(0.0, 0.0))
    tables = {"storage_power_in_mw": {}, "storage_power_out_mw": {}, "storage_energy_mwh": {}}
    keys = [(c, s) for c in instance.countries for s in sorted(instance.storages)]
    for k, (table, key) in enumerate((table, key) for key in keys for table in tables):
        tables[table][key] = turns[k % len(turns)]
    return dataclasses.replace(instance, bounds=BoundsTable(instance.bounds.gen_mw, **tables))


def test_breakdown_of_varied_storage_bounds_matches_bounds_reference():
    dataset = build_synth_dataset(3, ["AT", "DE", "FR", "NL"], [2009], 24)
    for spec in specs_for_selector("base", [2009], 24):
        assert_breakdown_matches_reference(varied_storage_bounds(make_instance(dataset, spec, 2009)))


def assert_capacity_columns_priced_by_capacity_costs(instance):
    """Every capacity column costs its prorated annuity plus fixed O&M, or 0 when pinned; returns the costs."""
    lp, H = build_model(instance), instance.window.hours
    costs = {}
    for family, capacity in CAPACITIES.items():
        fam = lp.col_family(family)
        for (c, name), idx in zip(fam.keys, fam.index):
            spec = instance.techs[name] if family == "cap" else instance.storages[name]
            pinned = getattr(instance.bounds, capacity.bounds)(c, name).pinned
            want = 0.0 if pinned else prorate_fixed_costs(sum(capacity_costs(spec, family)), H) * EUR_PER_KEUR_MW
            assert lp.col_obj[idx].hex() == want.hex(), (family, c, name)
            costs[family, c, name] = (pinned, want)
    return costs


def test_capacity_columns_are_priced_by_capacity_costs():
    synthetic, bundled = build_synth_dataset(3, ["AT", "DE", "FR", "NL"], [2009], 24), bundled_bounds_dataset(3, 24)
    for spec in specs_for_selector("all", [2009], 24):
        cells = [make_instance(dataset, spec, 2009) for dataset in (synthetic, bundled)]
        for instance in (*cells, varied_storage_bounds(cells[0])):
            costs = assert_capacity_columns_priced_by_capacity_costs(instance)
            assert {pinned for pinned, _ in costs.values()} == {True, False}
            # A reservoir prints no discharge cost, so its discharge capacity costs nothing.
            reservoir = {costs[key] for key in costs if key[0] == "scd" and key[2] == "reservoir"}
            assert reservoir and {cost for _, cost in reservoir} == {0.0}
        # The varied bounds leave every storage capacity family expandable somewhere, the reservoir's too.
        free = {(family, name) for (family, _, name), (pinned, _) in costs.items() if family != "cap" and not pinned}
        assert {family for family, _ in free} == {"sce", "scc", "scd"} and ("scd", "reservoir") in free


def test_capacity_costs_split_annuity_and_fixed_om():
    static = load_static()
    ccgt, li_ion, reservoir = static.technologies["ccgt"], static.storages["li_ion"], static.storages["reservoir"]
    assert capacity_costs(ccgt, "cap") == (
        annuity(ccgt.overnight_cost_keur_per_mw, ccgt.interest_rate, ccgt.lifetime_yr), ccgt.fixed_cost_keur_per_mw_yr
    )
    assert capacity_costs(li_ion, "sce") == (
        annuity(li_ion.overnight_cost_energy_keur_per_mwh, li_ion.interest_rate, li_ion.lifetime_yr), 0.0
    )
    assert reservoir.overnight_cost_discharge_keur_per_mw is None
    assert capacity_costs(reservoir, "scd") == (0.0, 0.0)
