"""Shared builders for small hand-checkable instances used across tests."""

from __future__ import annotations

from datetime import timedelta

import numpy as np

from heatgrid.heat import HeatConfig
from heatgrid.lp import LinearProgram
from heatgrid.model import HeatBlock, SystemInstance
from heatgrid.scenarios import make_instance, specs_for_selector
from heatgrid.series import HourlySeries, ModelWindow, ProfileSet, utc, window_july_june
from heatgrid.staticdata import Bounds, BoundsTable, NtcMatrix, TechnologySpec

INF = float("inf")

START = utc(2009, 7, 1)


def noleap_walk(start, hours: int) -> list:
    """The first `hours` hours from `start` on the no-leap calendar, one real hour per step.

    A reference kept apart from the calendar code: a step that lands on a
    Feb 29 goes on to Mar 1 00:00, and only a start may lie on a Feb 29.
    """
    walk, ts = [], start
    for _ in range(hours):
        walk.append(ts)
        ts += timedelta(hours=1)
        if ts.month == 2 and ts.day == 29:
            ts = ts.replace(month=3, day=1, hour=0)
    return walk


def assert_window_of_flat_map(dataset, year: int, hours: int, series_map: dict) -> None:
    """Every array of a heat cell's instance is the July-June window of its series in `series_map`."""
    inst = make_instance(dataset, specs_for_selector("base", [year], hours)[2], year)  # 25%, two-hour tank
    profiles = {}
    for c in inst.countries:
        profiles.update({(c, f"heat_demand_MWth.{bt}.{st}"): s for (bt, st), s in inst.heat.demand[c].profiles.items()})
        profiles.update({(c, f"cop.{st}.{hpt}"): s for (st, hpt), s in inst.heat.cops[c].profiles.items()})
    seen = {key: s.values for key, s in profiles.items()}
    seen.update({(c, "electric_load_MW"): arr for c, arr in inst.loads_mw.items()})
    seen.update({(c, f"availability_factor.{t}"): arr for (c, t), arr in inst.availability.items()})
    seen.update({(c, "hydro_inflow_MWh"): arr for c, arr in inst.inflow_mwh.items()})
    assert sorted(seen) == sorted(series_map)
    for key, ser in series_map.items():
        ref = window_july_june(ser, year, hours)
        if key in profiles:
            assert (profiles[key].start, profiles[key].quantity) == (ref.start, ref.quantity)
        assert seen[key].shape == (hours,)
        np.testing.assert_array_equal(seen[key], ref.values)


def tech(
    name,
    varcost_fuel=20.0,
    efficiency=1.0,
    overnight=800.0,
    fixed=20.0,
    lifetime=25,
    availability=1.0,
    carbon=0.0,
    tech_class="non_renewable",
):
    return TechnologySpec(
        name=name,
        tech_class=tech_class,
        interest_rate=0.04,
        lifetime_yr=lifetime,
        availability=availability,
        overnight_cost_keur_per_mw=overnight,
        fixed_cost_keur_per_mw_yr=fixed,
        efficiency=efficiency,
        carbon_content_t_per_mwh_fuel=carbon,
        fuel_cost_eur_per_mwh_fuel=varcost_fuel,
    )


def series(country, quantity, values):
    return HourlySeries(country, quantity, START, np.asarray(values, dtype=float))


def heat_block(country, share, ep, hd_values, cop_values):
    hd = series(country, "heat_demand_MWth", hd_values)
    demand = ProfileSet(country, "heat_demand_MWth", {("single_family", "space"): hd})
    cops = ProfileSet(country, "cop", {("space", "air"): series(country, "cop", cop_values)})
    key = ("single_family", "space", "air")
    config = HeatConfig(shares={key: share}, ep_hours={key: ep})
    return HeatBlock.build(config, {country: demand}, {country: cops})


def instance(
    name,
    loads_mw,
    techs,
    gen_bounds,
    availability=None,
    ntc_mw=None,
    heat=None,
    co2=150.0,
    bio_caps=None,
):
    """Storage-free instance. `gen_bounds`: (country, tech) -> (lo, up) MW."""
    countries = tuple(sorted(loads_mw))
    hours = len(next(iter(loads_mw.values())))
    bounds = BoundsTable(
        gen_mw={key: Bounds(lo, up) for key, (lo, up) in gen_bounds.items()},
        storage_power_in_mw={},
        storage_power_out_mw={},
        storage_energy_mwh={},
    )
    return SystemInstance(
        name=name,
        countries=countries,
        window=ModelWindow(hours),
        loads_mw={c: np.asarray(v, dtype=float) for c, v in loads_mw.items()},
        availability={k: np.asarray(v, dtype=float) for k, v in (availability or {}).items()},
        inflow_mwh={},
        techs=techs,
        storages={},
        bounds=bounds,
        ntc=NtcMatrix(ntc_mw or {}),
        co2_price=co2,
        bioenergy_cap_mwh_yr=bio_caps or {},
        heat=heat,
    )


# A small catalog of dispatchables with distinct marginal costs.
TECH_CATALOG = {
    "nuclear": tech("nuclear", varcost_fuel=1.7, efficiency=0.34, overnight=6000, fixed=30, lifetime=40, availability=0.91),
    "ccgt": tech("ccgt", varcost_fuel=26.0, efficiency=0.61, overnight=830, fixed=28, carbon=0.2, availability=0.96),
    "oil": tech("oil", varcost_fuel=41.7, efficiency=0.35, overnight=400, fixed=7, carbon=0.27, availability=0.9),
    "other": tech("other", varcost_fuel=18.1, efficiency=0.35, overnight=1500, fixed=30, carbon=0.35, availability=0.9),
}


def random_desk_instance(seed: int) -> SystemInstance:
    """1-2 countries, 4-24 hours, <= 2 free capacities, no storage.

    Feasible by construction: every country either owns a free capacity or
    is pinned above its own peak effective load.
    """
    rng = np.random.default_rng(seed)
    n_countries = int(rng.integers(1, 3))
    countries = ["DE", "FR"][:n_countries]
    hours = int(rng.integers(4, 25))
    tech_names = list(rng.permutation(sorted(TECH_CATALOG)))[: int(rng.integers(2, 5))]
    techs = {name: TECH_CATALOG[name] for name in tech_names}

    loads = {
        c: rng.uniform(400.0, 2400.0, hours).round(1) for c in countries
    }
    peak = {c: float(loads[c].max()) for c in countries}

    n_free = int(rng.integers(1, 3))
    free_slots = [(c, g) for c in countries for g in tech_names]
    free_keys = [free_slots[i] for i in rng.choice(len(free_slots), size=min(n_free, len(free_slots)), replace=False)]
    free_countries = {c for c, _ in free_keys}

    gen_bounds = {}
    availability = {}
    for c in countries:
        for g in tech_names:
            if (c, g) in free_keys:
                gen_bounds[(c, g)] = (0.0, INF)
            elif rng.random() < 0.5:
                gen_bounds[(c, g)] = (0.0, 0.0)  # absent
            else:
                cap = float(rng.uniform(0.1, 0.6) * peak[c])
                gen_bounds[(c, g)] = (cap, cap)
        if c not in free_countries:
            # No expandable capacity here: pin a backstop above own peak.
            cap = 1.3 * peak[c] / 0.9
            gen_bounds[(c, "backstop")] = (cap, cap)
        # A pinned PV-like VRE with an hourly profile in half the cases.
        if rng.random() < 0.5:
            cap = float(rng.uniform(0.2, 0.8) * peak[c])
            gen_bounds[(c, "solar_pv")] = (cap, cap)
            availability[(c, "solar_pv")] = rng.uniform(0.0, 1.0, hours).round(3)

    techs = dict(techs)
    if any(("backstop" == g) for (_, g) in gen_bounds):
        techs["backstop"] = tech("backstop", varcost_fuel=55.0, efficiency=0.4, overnight=500, fixed=10, availability=0.9)
    if any(("solar_pv" == g) for (_, g) in gen_bounds):
        techs["solar_pv"] = tech(
            "solar_pv", varcost_fuel=0.0, efficiency=1.0, overnight=597, fixed=10,
            lifetime=40, availability=1.0, tech_class="variable_renewable",
        )

    ntc = {}
    if n_countries == 2 and rng.random() < 0.7:
        mw = float(rng.uniform(0.0, 0.5) * min(peak.values()))
        ntc = {("DE", "FR"): mw, ("FR", "DE"): mw}

    heat = None
    if rng.random() < 0.4:
        c = countries[0]
        hd = rng.uniform(0.0, 0.5, hours) * peak[c]
        cop = rng.uniform(1.8, 3.5, hours)
        heat = heat_block(c, share=0.25, ep=0.0, hd_values=hd.round(1), cop_values=cop.round(2))

    return instance(
        name=f"desk{seed}",
        loads_mw=loads,
        techs=techs,
        gen_bounds=gen_bounds,
        availability=availability,
        ntc_mw=ntc,
        heat=heat,
    )


def random_lp(seed: int) -> LinearProgram:
    """A frozen LP of 1-15 rows and 2-15 columns with every bound kind and sense.

    Some are infeasible and some unbounded; each has an offset.
    """
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 16)), int(rng.integers(2, 16))
    lp = LinearProgram(f"rand{seed}")
    cols = []  # (lo, hi, obj) per column
    for j in range(n):
        kind = rng.integers(0, 4)
        if kind == 0:
            lo, hi = 0.0, INF
        elif kind == 1:
            lo, hi = float(-rng.random() * 3), float(rng.random() * 5)
        elif kind == 2:
            lo, hi = -INF, float(rng.random() * 4)
        else:
            lo, hi = -INF, INF
        cols.append((lo, hi, float(rng.normal())))
    lp.add_named_cols([f"x{j}" for j in range(n)], *zip(*cols))
    lp.add_named_rows([f"r{i}" for i in range(m)], *random_rows(rng, m, n, 0.6, "LEG"))
    lp.offset = float(rng.normal())
    return lp.freeze()


def random_rows(rng, m: int, n: int, density: float, senses: str) -> tuple:
    """Senses, rhs and (row, column, coefficient) entries of `m` random rows.

    Per row: each of the `n` columns enters with probability `density` and a
    normal coefficient, then the sense is drawn from `senses` and the rhs
    from a normal.
    """
    row_senses, rhs, rows, cols, coefs = [], [], [], [], []
    for i in range(m):
        for j in range(n):
            if rng.random() < density:
                rows.append(i)
                cols.append(j)
                coefs.append(float(rng.normal()))
        row_senses.append(str(rng.choice(list(senses))))
        rhs.append(float(rng.normal()))
    return row_senses, rhs, (rows, cols, coefs)
