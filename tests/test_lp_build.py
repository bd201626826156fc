"""LP assembly: hand-solved instances, structure, monotonicity properties."""

import hashlib

import numpy as np
import pytest

from desk import TECH_CATALOG, heat_block, instance, tech
from heatgrid.dataset import build_synth_dataset
from heatgrid.lp import LpError
from heatgrid.model import (
    annuity,
    build_model,
    prorate_fixed_costs,
    variable_cost,
)
from heatgrid.scenarios import make_instance, specs_for_selector
from heatgrid.solver import solve

INF = float("inf")


def simple_instance(loads=(1000.0, 2000.0), **kw):
    t = tech("ccgt", varcost_fuel=26.0, efficiency=0.61, overnight=830, fixed=28, carbon=0.2)
    return instance(
        "simple",
        loads_mw={"DE": np.array(loads)},
        techs={"ccgt": t},
        gen_bounds={("DE", "ccgt"): (0.0, INF)},
        **kw,
    )


def test_hand_solved_two_hour_instance():
    inst = simple_instance()
    sol = solve(build_model(inst))
    assert sol.status == "optimal"
    spec = inst.techs["ccgt"]
    expected = (
        2.0 * prorate_fixed_costs(annuity(830, 0.04, 25) + 28, 2) * 1e6
        + variable_cost(spec, 150.0) * 1e3 * 3.0
    )
    assert sol.objective == pytest.approx(expected, rel=1e-9)
    assert sol.values[sol.lp.col("cap[DE,ccgt]")] == pytest.approx(2.0)
    assert sol.values[sol.lp.col("gen[DE,ccgt,0]")] == pytest.approx(1.0)
    assert sol.values[sol.lp.col("gen[DE,ccgt,1]")] == pytest.approx(2.0)


def test_tankless_heat_folds_into_balance_rhs():
    hb = heat_block("DE", share=0.25, ep=0.0, hd_values=[2000.0, 0.0], cop_values=[2.0, 2.0])
    inst = simple_instance(heat=hb)
    lp = build_model(inst)
    rhs = dict(zip(lp.row_names, lp.rhs))
    assert rhs["bal[DE,0]"] == pytest.approx(1.25)  # 1 GW load + 0.5/2 GW_el
    assert rhs["bal[DE,1]"] == pytest.approx(2.0)
    assert not any(n.startswith(("hl[", "hi[", "e[", "ho[")) for n in lp.col_names)


def test_tank_heat_emits_every_column_family():
    hb = heat_block("DE", share=0.25, ep=2.0, hd_values=[2000.0, 800.0, 400.0, 1200.0], cop_values=[2.0, 2.2, 2.4, 2.1])
    inst = simple_instance(loads=(1000.0, 900.0, 800.0, 1100.0), heat=hb)
    lp = build_model(inst)
    for prefix in ("ho[", "hi[", "hl[", "e["):
        assert any(n.startswith(prefix) for n in lp.col_names), prefix
    assert any(n.startswith("hdyn[") for n in lp.row_names)
    assert any(n.startswith("hcop[") for n in lp.row_names)


def test_no_ntc_instance_has_zero_flow_columns():
    loads = {"DE": np.array([1000.0, 500.0]), "FR": np.array([500.0, 1000.0])}
    techs = {"ccgt": TECH_CATALOG["ccgt"]}
    bounds = {("DE", "ccgt"): (0.0, INF), ("FR", "ccgt"): (0.0, INF)}
    with_ntc = instance("a", loads, techs, bounds, ntc_mw={("DE", "FR"): 300.0, ("FR", "DE"): 300.0})
    without = instance("b", loads, techs, bounds, ntc_mw={})
    assert sum(n.startswith("flw[") for n in build_model(with_ntc).col_names) == 4
    assert sum(n.startswith("flw[") for n in build_model(without).col_names) == 0


def test_catalog_round_trips_names():
    lp = build_model(simple_instance())
    for idx, name in enumerate(lp.col_names):
        assert lp.col(name) == idx
    with pytest.raises(LpError):
        lp.col("gen[XX,nope,0]")


def test_pinned_capacity_pays_fixed_om_only():
    t = tech("nuclear", varcost_fuel=1.7, efficiency=0.34, overnight=6000, fixed=30)
    inst = instance(
        "pinned",
        loads_mw={"DE": np.array([500.0, 500.0])},
        techs={"nuclear": t},
        gen_bounds={("DE", "nuclear"): (1000.0, 1000.0)},
    )
    lp = build_model(inst)
    # Offset carries the fixed O&M of the pinned GW; no annuity anywhere.
    assert lp.offset == pytest.approx(prorate_fixed_costs(30, 2) * 1e6 * 1.0)
    cap_idx = lp.col("cap[DE,nuclear]")
    assert lp.obj[cap_idx] == 0.0
    assert lp.lo[cap_idx] == lp.hi[cap_idx] == 1.0


def test_dispatchable_availability_derates_uniformly():
    t = tech("ccgt", availability=0.9)
    inst = instance(
        "derate",
        loads_mw={"DE": np.array([900.0])},
        techs={"ccgt": t},
        gen_bounds={("DE", "ccgt"): (0.0, INF)},
    )
    sol = solve(build_model(inst))
    assert sol.values[sol.lp.col("cap[DE,ccgt]")] == pytest.approx(1.0)  # 0.9 GW / 0.9


def test_vre_uses_hourly_factors():
    pv = tech("solar_pv", varcost_fuel=0.0, overnight=597, fixed=10, lifetime=40, tech_class="variable_renewable")
    backstop = tech("other", varcost_fuel=100.0, efficiency=0.5)
    inst = instance(
        "vre",
        loads_mw={"DE": np.array([100.0, 100.0])},
        techs={"solar_pv": pv, "other": backstop},
        gen_bounds={("DE", "solar_pv"): (200.0, 200.0), ("DE", "other"): (0.0, INF)},
        availability={("DE", "solar_pv"): np.array([0.5, 0.0])},
    )
    sol = solve(build_model(inst))
    assert sol.values[sol.lp.col("gen[DE,solar_pv,0]")] == pytest.approx(0.1)  # covers hour 0
    assert sol.values[sol.lp.col("gen[DE,solar_pv,1]")] == pytest.approx(0.0)
    assert sol.values[sol.lp.col("gen[DE,other,1]")] == pytest.approx(0.1)


def test_bioenergy_annual_cap_prorated():
    bio = tech("bioenergy", varcost_fuel=10.0, efficiency=0.45, tech_class="dispatchable_renewable")
    backstop = tech("other", varcost_fuel=100.0, efficiency=0.5)
    inst = instance(
        "bio",
        loads_mw={"DE": np.array([100.0] * 4)},
        techs={"bioenergy": bio, "other": backstop},
        gen_bounds={("DE", "bioenergy"): (200.0, 200.0), ("DE", "other"): (0.0, INF)},
        bio_caps={"DE": 8760.0 / 4.0 * 200.0},  # prorates to 200 MWh over 4 h
    )
    sol = solve(build_model(inst))
    total_bio = sum(sol.values[sol.lp.col(f"gen[DE,bioenergy,{h}]")] for h in range(4))
    assert total_bio == pytest.approx(0.2, abs=1e-9)  # 200 MWh in GWh


def test_objective_monotone_in_co2_price():
    objs = []
    for co2 in (0.0, 100.0, 200.0):
        inst = simple_instance(co2=co2)
        objs.append(solve(build_model(inst)).objective)
    assert objs[0] <= objs[1] <= objs[2]
    assert objs[0] < objs[2]


def test_relaxation_and_heat_addition_direction():
    # Upper bound removal weakly decreases cost.
    t = TECH_CATALOG["ccgt"]
    cheap = tech("other", varcost_fuel=5.0, efficiency=0.5)
    capped = instance(
        "capped",
        loads_mw={"DE": np.array([1000.0, 1500.0])},
        techs={"ccgt": t, "other": cheap},
        gen_bounds={("DE", "ccgt"): (0.0, INF), ("DE", "other"): (0.0, 500.0)},
    )
    relaxed = instance(
        "relaxed",
        loads_mw={"DE": np.array([1000.0, 1500.0])},
        techs={"ccgt": t, "other": cheap},
        gen_bounds={("DE", "ccgt"): (0.0, INF), ("DE", "other"): (0.0, INF)},
    )
    obj_capped = solve(build_model(capped)).objective
    obj_relaxed = solve(build_model(relaxed)).objective
    assert obj_relaxed <= obj_capped + 1e-9

    # Adding heat demand (share 0 -> 0.25) weakly increases cost.
    hb = heat_block("DE", 0.25, 0.0, [800.0, 900.0], [2.5, 2.5])
    with_heat = simple_instance(heat=hb)
    assert (
        solve(build_model(with_heat)).objective
        >= solve(build_model(simple_instance())).objective - 1e-9
    )


def test_ep_monotonicity_in_objective():
    loads = (1000.0, 400.0, 1400.0, 600.0)
    hd = [1600.0, 200.0, 1800.0, 300.0]
    cop = [2.0, 2.6, 1.9, 2.5]
    objs = {}
    for ep in (0.0, 2.0, 4.0):
        hb = heat_block("DE", 0.25, ep, hd, cop)
        inst = simple_instance(loads=loads, heat=hb)
        objs[ep] = solve(build_model(inst)).objective
    assert objs[2.0] <= objs[0.0] + 1e-9
    assert objs[4.0] <= objs[2.0] + 1e-9


def test_scale_invariance_of_variable_plus_investment():
    lam = 3.0
    base = simple_instance()
    scaled = instance(
        "scaled",
        loads_mw={"DE": np.array([1000.0, 2000.0]) * lam},
        techs=base.techs,
        gen_bounds={("DE", "ccgt"): (0.0, INF)},
    )
    obj1 = solve(build_model(base)).objective
    obj2 = solve(build_model(scaled)).objective
    assert obj2 == pytest.approx(lam * obj1, rel=1e-9)


def test_mixed_tank_config_folds_and_emits_per_unit():
    # One country, DE, holds a unit with a two-hour tank (columns) and one with none (folded).
    from heatgrid.heat import HeatConfig
    from heatgrid.model import HeatBlock, build_model, extract_solved
    from heatgrid.series import HourlySeries, ProfileSet, utc
    from heatgrid.heat import validate_trajectory
    import numpy as np

    start = utc(2009, 7, 1)
    hd_space = HourlySeries("DE", "heat_demand_MWth", start, np.array([1200.0, 300.0, 900.0, 600.0]))
    hd_water = HourlySeries("DE", "heat_demand_MWth", start, np.array([200.0, 250.0, 220.0, 240.0]))
    demand = ProfileSet(
        "DE", "heat_demand_MWth", {("single_family", "space"): hd_space, ("single_family", "water"): hd_water}
    )
    cop_sp = HourlySeries("DE", "cop", start, np.array([2.0, 2.4, 2.1, 2.3]))
    cop_wa = HourlySeries("DE", "cop", start, np.array([1.6, 1.9, 1.7, 1.8]))
    cops = ProfileSet("DE", "cop", {("space", "air"): cop_sp, ("water", "air"): cop_wa})
    cfg = HeatConfig(
        shares={("single_family", "space", "air"): 0.25, ("single_family", "water", "air"): 0.25},
        ep_hours={("single_family", "space", "air"): 2.0, ("single_family", "water", "air"): 0.0},
    )
    hb = HeatBlock.build(cfg, {"DE": demand}, {"DE": cops})
    inst = simple_instance(loads=(1000.0, 700.0, 900.0, 800.0), heat=hb)
    lp = build_model(inst)
    space_cols = [n for n in lp.col_names if n.startswith("hl[DE,single_family,space")]
    water_cols = [n for n in lp.col_names if n.startswith(("hl[DE,single_family,water", "e[DE,single_family,water"))]
    assert len(space_cols) == 4 and not water_cols

    sol = solve(lp)
    assert sol.status == "optimal"
    solved = extract_solved(inst, lp, sol)
    traj = solved.heat["DE"]
    assert set(traj.keys) == {("single_family", "space", "air"), ("single_family", "water", "air")}
    report = validate_trajectory(traj, hb.fleet, hb.targets_mw["DE"], cops, "DE")
    assert report.max_violation <= 1e-6
    # Every check applies to the country: the identity HO = HI to its folded unit alone.
    assert list(report.families) == [
        "storage_recursion", "storage_bounds", "cop_link", "target_mismatch", "capacity_violation", "ep_zero_identity",
    ]
    assert report.families["storage_recursion"].rows == 2 * 4
    assert report.families["ep_zero_identity"].rows == 4
    # The country's heat capacities sum its two units: output peaks 300 and 62.5, tank 2 h of 300.
    caps = solved.capacities_mw["DE"]
    assert caps[("heat_output", "heat_pump")] == pytest.approx(300.0 + 62.5)
    assert caps[("heat_storage_energy", "heat_pump")] == pytest.approx(2.0 * 300.0)
    assert caps[("heat_electricity", "heat_pump")] == pytest.approx(300.0 / 2.0 + 60.0 / 1.8)
    # The folded unit is locked to HO = HI, E = HO/cop.
    water = ("single_family", "water", "air")
    np.testing.assert_allclose(traj.heat_generated_mw[water], 0.25 * hd_water.values)
    np.testing.assert_allclose(traj.electricity_mw[water], 0.25 * hd_water.values / cop_wa.values)


def lp_digest(lp) -> str:
    """SHA-256 of a built LP: column bounds and costs, row senses and right-hand sides, CSR matrix, offset, names."""
    digest = hashlib.sha256()
    matrix = lp.matrix()
    for arr in (lp.col_lo, lp.col_hi, lp.col_obj, lp.row_rhs, matrix.data, matrix.indices, matrix.indptr):
        digest.update(np.ascontiguousarray(arr).tobytes())
    digest.update("".join(lp.row_sense).encode())
    digest.update(float(lp.offset).hex().encode())
    digest.update("\n".join([*lp.col_names, *lp.row_names]).encode())
    return digest.hexdigest()


def test_built_lp_is_pinned():
    # Every bit of the 24 h three-country cell with heat pumps and a two-hour tank; any change must show here.
    dataset = build_synth_dataset(7, ["AT", "DE", "FR"], [2009], 24)
    lp = build_model(make_instance(dataset, specs_for_selector("base", [2009], 24)[2], 2009))
    assert lp.name == "base-hp25-ep2__y2009" and (lp.num_rows, lp.num_cols) == (2067, 3372)
    assert lp_digest(lp) == "8380b2b8330828608b1e23904801000de30986305cacb1e8c93afd313dc65f57"
