"""Electricity-storage behavior in the assembled model."""

import numpy as np
import pytest

from desk import tech
from heatgrid.model import ModelWindow, SystemInstance, build_model, extract_solved
from heatgrid.solver import solve, verify
from heatgrid.staticdata import Bounds, BoundsTable, NtcMatrix, StorageSpec

INF = float("inf")


def storage_spec(name, eff_c=0.9, eff_d=0.9, mc=0.5, energy_cost=10.0, power_cost=50.0):
    return StorageSpec(
        name=name,
        interest_rate=0.04,
        lifetime_yr=30,
        availability=1.0,
        overnight_cost_energy_keur_per_mwh=energy_cost,
        overnight_cost_charge_keur_per_mw=power_cost,
        overnight_cost_discharge_keur_per_mw=power_cost,
        efficiency_charge=eff_c,
        efficiency_discharge=eff_d,
        marginal_cost_charge_eur_per_mwh=mc,
        marginal_cost_discharge_eur_per_mwh=mc,
    )


def make_instance(loads, gen_bounds, sto_bounds, storages, inflow=None, techs=None):
    countries = tuple(sorted(loads))
    hours = len(next(iter(loads.values())))
    sin = {k: Bounds(*v["in"]) for k, v in sto_bounds.items()}
    sout = {k: Bounds(*v["out"]) for k, v in sto_bounds.items()}
    sen = {k: Bounds(*v["energy"]) for k, v in sto_bounds.items()}
    return SystemInstance(
        name="sto",
        countries=countries,
        window=ModelWindow(hours),
        loads_mw={c: np.asarray(v, dtype=float) for c, v in loads.items()},
        availability={},
        inflow_mwh=inflow or {},
        techs=techs or {"ccgt": tech("ccgt", varcost_fuel=30.0, efficiency=0.6)},
        storages=storages,
        bounds=BoundsTable(
            gen_mw={k: Bounds(*v) for k, v in gen_bounds.items()},
            storage_power_in_mw=sin,
            storage_power_out_mw=sout,
            storage_energy_mwh=sen,
        ),
        ntc=NtcMatrix({}),
        co2_price=150.0,
        bioenergy_cap_mwh_yr={},
    )


def test_cyclic_storage_shaves_an_expensive_peak():
    # Cheap baseload tech is capacity-limited; the battery shifts energy
    # into the peak hour and must end the window where it started.
    cheap = tech("other", varcost_fuel=5.0, efficiency=1.0, overnight=100, fixed=5)
    inst = make_instance(
        loads={"DE": [500.0, 500.0, 1500.0, 500.0]},
        gen_bounds={("DE", "other"): (900.0, 900.0)},
        sto_bounds={("DE", "li_ion"): {"in": (0, INF), "out": (0, INF), "energy": (0, INF)}},
        storages={"li_ion": storage_spec("li_ion", eff_c=0.95, eff_d=0.95)},
        techs={"other": cheap},
    )
    lp = build_model(inst)
    sol = solve(lp)
    assert sol.status == "optimal"
    solved = extract_solved(inst, lp, sol)
    dis = solved.dispatch_mw[("DE", "discharge", "li_ion")]
    assert dis[2] == pytest.approx(1500.0 - 900.0, abs=1e-6)  # peak served from storage
    soc = solved.dispatch_mw[("DE", "soc_mwh", "li_ion")]
    # Cyclic boundary: first-hour recursion wraps to the final state.
    ch = solved.dispatch_mw[("DE", "charge", "li_ion")]
    wrap = soc[0] - soc[-1] - 0.95 * ch[0] + dis[0] / 0.95
    assert wrap == pytest.approx(0.0, abs=1e-6)
    assert verify(lp, sol).max_violation <= 1e-7


def test_inflow_beyond_tank_capacity_spills_at_zero_cost():
    # Inflow of 1000 MWh/h into a 100 MWh reservoir with a 50 MW turbine
    # must spill rather than make the model infeasible.
    inst = make_instance(
        loads={"DE": [200.0] * 4},
        gen_bounds={("DE", "ccgt"): (0.0, INF)},
        sto_bounds={("DE", "reservoir"): {"in": (0, 0), "out": (50.0, 50.0), "energy": (100.0, 100.0)}},
        storages={"reservoir": storage_spec("reservoir", eff_c=1.0, eff_d=0.95, mc=0.1)},
        inflow={"DE": np.full(4, 1000.0)},
    )
    sol = solve(build_model(inst))
    assert sol.status == "optimal"
    solved = extract_solved(inst, build_model(inst), sol)
    spill = solved.dispatch_mw[("DE", "spill_mwh", "reservoir")]
    assert spill.sum() > 0.0
    # The turbine still runs flat out: its energy is free vs gas.
    dis = solved.dispatch_mw[("DE", "discharge", "reservoir")]
    np.testing.assert_allclose(dis, 50.0, atol=1e-6)


def test_inflow_splits_between_open_phs_and_reservoir_by_energy():
    inst = make_instance(
        loads={"DE": [100.0] * 3},
        gen_bounds={("DE", "ccgt"): (0.0, INF)},
        sto_bounds={
            ("DE", "phs_open"): {"in": (10.0, 10.0), "out": (10.0, 10.0), "energy": (300.0, 300.0)},
            ("DE", "reservoir"): {"in": (0, 0), "out": (10.0, 10.0), "energy": (100.0, 100.0)},
        },
        storages={
            "phs_open": storage_spec("phs_open", eff_c=0.97, eff_d=0.91),
            "reservoir": storage_spec("reservoir", eff_c=1.0, eff_d=0.95),
        },
        inflow={"DE": np.full(3, 40.0)},
    )
    lp = build_model(inst)
    rhs = dict(zip(lp.row_names, lp.rhs))
    # 300:100 energy split of 40 MWh/h -> 30 and 10 (0.03 / 0.01 GWh).
    assert rhs["sdyn[DE,phs_open,1]"] == pytest.approx(0.030)
    assert rhs["sdyn[DE,reservoir,1]"] == pytest.approx(0.010)


def test_round_trip_losses_make_idle_cycling_unattractive():
    # Flat load and flat prices: the optimum never cycles the battery.
    inst = make_instance(
        loads={"DE": [400.0] * 6},
        gen_bounds={("DE", "ccgt"): (0.0, INF)},
        sto_bounds={("DE", "li_ion"): {"in": (0, INF), "out": (0, INF), "energy": (0, INF)}},
        storages={"li_ion": storage_spec("li_ion", eff_c=0.9, eff_d=0.9)},
    )
    lp = build_model(inst)
    sol = solve(lp)
    solved = extract_solved(inst, lp, sol)
    assert solved.dispatch_mw[("DE", "charge", "li_ion")].sum() == pytest.approx(0.0, abs=1e-9)
    assert solved.capacities_mw["DE"][("storage_energy", "li_ion")] == pytest.approx(0.0, abs=1e-6)
