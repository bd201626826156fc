"""Correctness checks made apart from the program.

Every check returns a list of problems (empty when it holds). The checks
recompute what they test from the inputs, from persisted CSVs, or from a
property the model must have; none compares against stored output.

* matrix cells: hourly balance per country from ``dispatch.csv`` and
  ``flows.csv``; heat output against share x demand from the synthetic
  series; the cyclic tank recursion; objective orderings; variant
  invariants;
* full-year build: per-family row and column counts in closed form from
  the instance, a feasible point built from the instance data, and its
  cost from the static cost table;
* MPS interchange: the imported program against the exported one, and the
  sidecar name maps.
"""

from __future__ import annotations

import csv
import json
from collections import defaultdict
from pathlib import Path

import numpy as np

BALANCE_TOL_MW = 1e-6
HEAT_REL_TOL = 1e-9
OBJECTIVE_REL_TOL = 1e-7
POINT_TOL_GW = 1e-9
COST_REL_TOL = 1e-9
HOURS_PER_YEAR = 8760
HEAT_SHARE = 0.25


def _rows(path: Path):
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        yield from reader


def read_cell(cell_dir: Path) -> dict:
    """A persisted cell as plain arrays, read with the csv module only."""
    manifest = json.loads((cell_dir / "manifest.json").read_text())
    hours = manifest["scenario"]["window_hours"]

    def series():
        return np.zeros(hours)

    dispatch = defaultdict(series)
    for h, c, kind, name, value in _rows(cell_dir / "dispatch.csv"):
        dispatch[(c, kind, name)][int(h)] = float(value)
    flows = defaultdict(series)
    for h, a, b, value in _rows(cell_dir / "flows.csv"):
        flows[(a, b)][int(h)] = float(value)
    heat = defaultdict(lambda: {f: np.zeros(hours) for f in ("ho", "hi", "hl", "e")})
    for h, c, bt, st, hpt, ho, hi, hl, e in _rows(cell_dir / "heat.csv"):
        unit = heat[(c, bt, st, hpt)]
        for field, value in zip(("ho", "hi", "hl", "e"), (ho, hi, hl, e)):
            unit[field][int(h)] = float(value)
    capacities = {(c, kind, name): float(v) for c, kind, name, v in _rows(cell_dir / "capacities.csv")}
    return {
        "manifest": manifest,
        "hours": hours,
        "dispatch": dict(dispatch),
        "flows": dict(flows),
        "heat": dict(heat),
        "capacities": capacities,
    }


def balance_problems(cell: dict) -> list:
    """Each country's hourly balance closes within ``BALANCE_TOL_MW``."""
    sign = {"generation": 1.0, "discharge": 1.0, "charge": -1.0, "load": -1.0}
    net = defaultdict(lambda: np.zeros(cell["hours"]))
    for (c, kind, _name), arr in cell["dispatch"].items():
        if kind in sign:
            net[c] += sign[kind] * arr
    for (a, b), arr in cell["flows"].items():
        net[a] -= arr
        net[b] += arr
    name = cell["manifest"]["scenario"]["name"]
    return [
        f"{name}: {c} balance off by {np.abs(arr).max():.3e} MW at hour {int(np.abs(arr).argmax())}"
        for c, arr in sorted(net.items())
        if np.abs(arr).max() > BALANCE_TOL_MW
    ]


def heat_problems(cell: dict, demand: dict) -> list:
    """Heat output equals share x demand; tank levels follow the cyclic recursion.

    `demand` maps (country, building type, sink) to the synthetic heat
    demand of the cell's window in MW_th.
    """
    scenario = cell["manifest"]["scenario"]
    name = scenario["name"]
    problems = []
    expected_units = (
        {(c, bt, st, "air") for (c, bt, st) in demand} if scenario["heat_share"] > 0 else set()
    )
    if set(cell["heat"]) != expected_units:
        problems.append(f"{name}: heat units {sorted(cell['heat'])} != {sorted(expected_units)}")
        return problems
    for (c, bt, st, _hpt), unit in sorted(cell["heat"].items()):
        target = HEAT_SHARE * demand[(c, bt, st)]
        err = np.abs(unit["ho"] - target).max()
        if err > HEAT_REL_TOL * max(target.max(), 1.0):
            problems.append(f"{name}: {c}/{bt}/{st} heat output off share x demand by {err:.3e} MW")
        step = unit["hl"] - np.roll(unit["hl"], 1) - unit["hi"] + unit["ho"]
        if np.abs(step).max() > BALANCE_TOL_MW:
            problems.append(
                f"{name}: {c}/{bt}/{st} tank recursion off by {np.abs(step).max():.3e} MWh"
            )
    return problems


def _not_above(a: float, b: float) -> bool:
    return a <= b + OBJECTIVE_REL_TOL * max(abs(a), abs(b))


def ordering_problems(objectives: dict, desk: bool) -> list:
    """objective(0 %) <= objective(25 %, ep2) per variant and year.

    `objectives` maps (variant, heat share, ep, year) to the objective. On
    the desk matrix, objective(25 %, ep2) <= objective(25 %, ep0) as well.
    """
    problems = []
    for (variant, share, ep, year), obj in sorted(objectives.items(), key=str):
        if share != 0.0:
            continue
        with_hp = objectives.get((variant, HEAT_SHARE, 2.0, year))
        if with_hp is None or not _not_above(obj, with_hp):
            problems.append(f"{variant} {year}: objective(0%) {obj} > objective(25%, ep2) {with_hp}")
        if desk:
            no_tank = objectives.get((variant, HEAT_SHARE, 0.0, year))
            if no_tank is None or with_hp is None or not _not_above(with_hp, no_tank):
                problems.append(
                    f"{variant} {year}: objective(25%, ep2) {with_hp} > objective(25%, ep0) {no_tank}"
                )
    return problems


def variant_problems(cell: dict, wind_lower_mw: dict) -> list:
    """no_ntc has no flows, no_coal no coal or lignite, wind_cap wind <= 1.5 x lower bound.

    `wind_lower_mw` maps (country, technology) to the base lower bound.
    """
    scenario = cell["manifest"]["scenario"]
    variant, name = scenario["variant"], scenario["name"]
    problems = []
    if variant == "no_ntc":
        if any(arr.any() for arr in cell["flows"].values()):
            problems.append(f"{name}: cross-border flows in a no_ntc cell")
    if variant == "no_coal":
        for (c, kind, tech), arr in cell["dispatch"].items():
            if kind == "generation" and tech in ("hard_coal", "lignite") and arr.any():
                problems.append(f"{name}: {c} generates from {tech}")
        for (c, kind, tech), mw in cell["capacities"].items():
            if kind == "generation" and tech in ("hard_coal", "lignite") and mw != 0.0:
                problems.append(f"{name}: {c} keeps {mw} MW of {tech}")
    if variant == "wind_cap":
        for (c, kind, tech), mw in cell["capacities"].items():
            if kind == "generation" and tech in ("wind_onshore", "wind_offshore"):
                cap = 1.5 * wind_lower_mw[(c, tech)]
                if mw > cap * (1.0 + 1e-9):
                    problems.append(f"{name}: {c} {tech} {mw} MW > 1.5 x lower bound {cap} MW")
    return problems


# ---------------------------------------------------------------------------
# Full-year build
# ---------------------------------------------------------------------------


def _present_storages(instance, c):
    b = instance.bounds
    return [
        s for s in sorted(instance.storages)
        if not (b.sto_out(c, s).up == 0.0 and b.sto_energy(c, s).up == 0.0)
    ]


def _inflow_shares(instance, c) -> dict:
    """Open PHS and reservoirs share a country's inflow by energy capacity."""
    inflow = instance.inflow_mwh.get(c)
    if inflow is None or not np.asarray(inflow).any():
        return {}
    energies = {
        s: instance.bounds.sto_energy(c, s).up
        for s in ("phs_open", "reservoir")
        if s in instance.storages and np.isfinite(instance.bounds.sto_energy(c, s).up)
    }
    total = sum(energies.values())
    return {s: e / total for s, e in energies.items() if e > 0} if total > 0 else {}


def _tank_units(instance, c) -> list:
    heat = instance.heat
    if heat is None:
        return []
    return [u for u in sorted(heat.targets_mw.get(c, {})) if heat.config.ep_hours.get(u, 0.0) > 0.0]


def closed_form_counts(instance) -> tuple[dict, dict]:
    """Row and column counts per family, from the instance alone."""
    H = instance.window.hours
    rows, cols = defaultdict(int), defaultdict(int)
    b = instance.bounds
    for c in instance.countries:
        rows["bal"] += H
        present = [g for g in instance.techs if b.gen(c, g).up != 0.0]
        cols["cap"] += len(present)
        cols["gen"] += H * len(present)
        rows["gcap"] += H * sum(not b.gen(c, g).pinned for g in present)
        cap = instance.bioenergy_cap_mwh_yr.get(c)
        if "bioenergy" in present and cap is not None and np.isfinite(cap):
            rows["bio"] += 1
        shares = _inflow_shares(instance, c)
        for s in _present_storages(instance, c):
            charge = b.sto_in(c, s).up > 0.0
            cols["sce"] += 1
            cols["scd"] += 1
            cols["scc"] += charge
            cols["ch"] += H * charge
            cols["dis"] += H
            cols["soc"] += H
            cols["spl"] += H * (s in shares)
            rows["sdyn"] += H
            rows["sin"] += H * (charge and not b.sto_in(c, s).pinned)
            rows["sout"] += H * (not b.sto_out(c, s).pinned)
            rows["scap"] += H * (not b.sto_energy(c, s).pinned)
        units = len(_tank_units(instance, c))
        for family in ("ho", "hi", "hl", "e"):
            cols[family] += H * units
        rows["hdyn"] += H * units
        rows["hcop"] += H * units
    inside = set(instance.countries)
    cols["flw"] = H * sum(
        1 for (a, z), mw in instance.ntc.limits_mw.items() if a in inside and z in inside and mw > 0
    )
    return dict(rows), dict(cols)


def count_problems(instance, lp) -> list:
    """Per-family LP sizes equal the closed-form counts."""
    rows, cols = closed_form_counts(instance)
    got_rows = defaultdict(int)
    for name in lp.row_names:
        got_rows[name[: name.index("[")]] += 1
    got_cols = defaultdict(int)
    for name in lp.col_names:
        got_cols[name[: name.index("[")]] += 1
    problems = []
    for kind, want, got in (("rows", rows, got_rows), ("cols", cols, got_cols)):
        for family in sorted(set(want) | set(got)):
            if want.get(family, 0) != got.get(family, 0):
                problems.append(
                    f"{kind} of family {family}: LP has {got.get(family, 0)}, "
                    f"closed form {want.get(family, 0)}"
                )
    return problems


def _annuity(overnight: float, rate: float, lifetime: float) -> float:
    if rate == 0.0:
        return overnight / lifetime
    return overnight * rate / (1.0 - (1.0 + rate) ** -lifetime)


def feasible_point(instance, lp) -> tuple[np.ndarray, float]:
    """A feasible point of the instance's LP and its cost, both made apart from the model.

    Gas (ccgt) covers load plus heat-pump electricity in every hour and is
    sized to its peak; every other generator and every storage is idle,
    inflow is spilled, flows are zero, and heat pumps run without using
    their tanks (HI = HO, HL = 0, E = HO / cop). Capacities sit at their
    lower bounds. The cost (EUR) is priced from the static cost table:
    annuity plus fixed O&M for expandable generation, fixed O&M for
    pinned generation, and fuel plus carbon for the gas that runs.
    """
    H = instance.window.hours
    pror = H / HOURS_PER_YEAR
    b = instance.bounds
    x = np.zeros(lp.num_cols)

    def put(name, values):
        if np.ndim(values) == 0:
            x[lp.col(name)] = values
        else:
            x[[lp.col(f"{name[:-1]},{h}]") for h in range(H)]] = values

    cost = 0.0
    for c in instance.countries:
        gas_gw = np.asarray(instance.loads_mw[c], dtype=float) / 1e3
        heat = instance.heat
        tanks = _tank_units(instance, c)
        for unit, target in sorted(heat.targets_mw.get(c, {}).items() if heat else ()):
            ho = np.asarray(target, dtype=float) / 1e3
            e = ho / heat.cops[c].profiles[unit[1:]].values
            gas_gw = gas_gw + e  # without a tank the same electricity is load
            if unit in tanks:
                for family, values in (("ho", ho), ("hi", ho), ("e", e)):
                    put(f"{family}[{c},{','.join(unit)}]", values)

        for g, spec in instance.techs.items():
            bound = b.gen(c, g)
            if bound.up == 0.0:
                continue
            cap_mw = bound.low
            if g == "ccgt":
                cap_mw = max(bound.low, float(gas_gw.max()) * 1e3 / spec.availability)
                put(f"gen[{c},{g}]", gas_gw)
                fuel = spec.fuel_cost_eur_per_mwh_fuel
                carbon = instance.co2_price * spec.carbon_content_t_per_mwh_fuel
                cost += (fuel + carbon) / spec.efficiency * float(gas_gw.sum()) * 1e3
            put(f"cap[{c},{g}]", cap_mw / 1e3)
            annual = spec.fixed_cost_keur_per_mw_yr
            if not bound.pinned:
                annual += _annuity(spec.overnight_cost_keur_per_mw, spec.interest_rate, spec.lifetime_yr)
            cost += annual * pror * 1e3 * cap_mw

        inflow = np.asarray(instance.inflow_mwh.get(c, np.zeros(H)), dtype=float) / 1e3
        for s, share in _inflow_shares(instance, c).items():
            put(f"spl[{c},{s}]", share * inflow)
        for s in _present_storages(instance, c):
            spec = instance.storages[s]
            for tag, bound, overnight in (
                ("sce", b.sto_energy(c, s), spec.overnight_cost_energy_keur_per_mwh),
                ("scc", b.sto_in(c, s), spec.overnight_cost_charge_keur_per_mw),
                ("scd", b.sto_out(c, s), spec.overnight_cost_discharge_keur_per_mw),
            ):
                if tag == "scc" and bound.up == 0.0:
                    continue
                put(f"{tag}[{c},{s}]", bound.low / 1e3)
                if not bound.pinned:
                    ann = _annuity(overnight or 0.0, spec.interest_rate, spec.lifetime_yr)
                    cost += ann * pror * 1e3 * bound.low
    return x, cost


def point_problems(lp, x: np.ndarray, cost_eur: float, report) -> list:
    """The point is feasible to POINT_TOL_GW in every family and costs `cost_eur`."""
    problems = [
        f"feasible point violates {family} by {fam.max_violation:.3e} GW"
        for family, fam in sorted(report.families.items())
        if fam.max_violation > POINT_TOL_GW
    ]
    objective = float(np.asarray(lp.obj) @ x + lp.offset)
    if abs(objective - cost_eur) > COST_REL_TOL * abs(cost_eur):
        problems.append(f"LP objective {objective!r} at the point != independent cost {cost_eur!r}")
    return problems


def heat_supplied_problems(instance, solved) -> list:
    """extract_solved's heat supplied equals the sum of share x demand."""
    want = 0.0
    if instance.heat is not None:
        for c, bundle in instance.heat.demand.items():
            for profile in bundle.profiles.values():
                want += HEAT_SHARE * float(np.sum(profile.values))
    got = solved.heat_supplied_mwh
    if abs(got - want) > HEAT_REL_TOL * max(want, 1.0):
        return [f"heat supplied {got!r} MWh != share x demand {want!r} MWh"]
    return []


# ---------------------------------------------------------------------------
# MPS interchange
# ---------------------------------------------------------------------------


def _row_map(lp) -> dict:
    return {
        name: (sense, rhs, {lp.col_names[i]: coef for i, coef in entries})
        for name, sense, rhs, entries in zip(lp.row_names, lp.senses, lp.rhs, lp.rows)
    }


def _col_map(lp) -> dict:
    return {name: (lo, hi, obj) for name, lo, hi, obj in zip(lp.col_names, lp.lo, lp.hi, lp.obj)}


def mps_problems(original, imported) -> tuple[bool, list]:
    """Compare an imported program with the one exported.

    Returns (lossless, problems). `lossless` is false when the imported
    program does not have the original columns in the original order. The
    problems list what came back different: any row, its sense, rhs or
    entries, any column's bounds or cost, and the offset.
    """
    lossless = imported.col_names == original.col_names and imported.row_names == original.row_names
    problems = []
    if imported.offset != original.offset:
        problems.append(f"offset {imported.offset!r} != {original.offset!r}")
    want_cols, got_cols = _col_map(original), _col_map(imported)
    for name, value in got_cols.items():
        if want_cols.get(name) != value:
            problems.append(f"column {name}: {value} != {want_cols.get(name)}")
    want_rows, got_rows = _row_map(original), _row_map(imported)
    if list(got_rows) != list(want_rows):
        problems.append("rows differ in names or order")
    for name, value in want_rows.items():
        if got_rows.get(name) != value:
            problems.append(f"row {name} differs")
    return lossless, problems[:20]


def sidecar_problems(path: Path, original) -> list:
    """Name maps are bijective, cover every name, and short names have <= 8 characters."""
    sidecar = json.loads(Path(str(path) + ".names.json").read_text())
    problems = []
    for kind, names in (("rows", original.row_names), ("cols", original.col_names)):
        mapping = sidecar[kind]
        if sorted(mapping.values()) != sorted(names):
            problems.append(f"sidecar {kind} map does not cover the program's names one to one")
        long = [short for short in mapping if len(short) > 8]
        if long:
            problems.append(f"sidecar {kind}: {len(long)} short names longer than 8, e.g. {long[0]!r}")
    return problems
