"""Cost arithmetic and assembly of the system cost-minimization LP.

One LP covers all countries and hours of a window. Within a country the
grid is a copper plate; between countries directed flows are capped by
fixed net-transfer capacities. The LP is built in GW/GWh/EUR units (data
enters in MW/MWh and is scaled here) to keep the matrix well conditioned.

Column families (catalog names; a family's keys are the bracketed fields
before the hour):

    cap[c,g]            generation capacity, GW
    gen[c,g,h]          generation, GW
    sce/scc/scd[c,s]    storage energy (GWh) / charge / discharge (GW) caps
    ch/dis/soc[c,s,h]   storage operation (GW, GW, GWh)
    spl[c,s,h]          spilled inflow of open PHS / reservoirs (GWh)
    flw[a>b,h]          directed cross-border flow, GW
    ho/hi/hl/e[c,unit,h] heat module: output, generated (GW_th),
                         tank level (GWh_th), electricity (GW_el)

Row families: bal (energy balance), gcap (availability), sdyn/scap/sin/sout
(storage), hdyn/hcop (heat), bio (annual bioenergy energy cap).

Capacity families are declared once, in ``CAPACITIES``, and priced once,
by ``capacity_costs``, for the assembler and ``cost_breakdown`` alike.
Capacity variables stay inside their bound table. Expandable capacity pays
annuitized investment plus fixed O&M (none for storage), prorated to the
window length; a pinned one (lower == upper) pays its fixed O&M as a
constant objective offset, and its hourly limits are folded into variable
bounds.
Heat units without a tank (ep = 0) have a fully determined electricity
profile, which is folded into the balance right-hand side instead of
emitting constant columns.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .heat import (
    TRAJECTORY_FIELDS,
    HeatConfig,
    electricity_for_heat,
    fixed_trajectory,
    required_heat_output,
    size_fleet,
)
from .ids import HOURS_PER_YEAR, INFLOW_STORAGES
from .lp import INF, LinearProgram
from .series import AlignmentError, ModelWindow, _check_aligned
from .staticdata import Bounds, BoundsTable, NtcMatrix, StorageSpec, TechnologySpec

MW_PER_GW = 1e3
EUR_PER_KEUR_MW = 1e6  # kEUR/MW -> EUR/GW


def annuity(overnight: float, rate: float, lifetime: float) -> float:
    """Constant yearly payment equivalent of an overnight cost.

    Units pass through (kEUR/MW in -> kEUR/MW/yr out). At rate 0 the
    annuity degenerates to straight-line overnight/lifetime.
    """
    if lifetime < 1:
        raise ValueError(f"lifetime {lifetime} < 1")
    if rate < 0:
        raise ValueError(f"negative interest rate {rate}")
    if rate == 0.0:
        return overnight / lifetime
    growth = (1.0 + rate) ** lifetime
    return overnight * rate * growth / (growth - 1.0)


def variable_cost(tech: TechnologySpec, co2_price: float) -> float:
    """Marginal generation cost in EUR/MWh_el, including carbon.

    Carbon content is per MWh of fuel, so both fuel and carbon costs are
    lifted by 1/efficiency to the electric side.
    """
    fuel = tech.fuel_cost_eur_per_mwh_fuel
    return (fuel + co2_price * tech.carbon_content_t_per_mwh_fuel) / tech.efficiency


def prorate_fixed_costs(annual: float, window_hours: int) -> float:
    """Scale a per-year cost to a window of `window_hours` hours."""
    if not 1 <= window_hours <= HOURS_PER_YEAR:
        raise ValueError(f"window hours {window_hours} not in [1, {HOURS_PER_YEAR}]")
    return annual * window_hours / HOURS_PER_YEAR


# Capacity column family -> its kind in SolvedSystem.capacities_mw, BoundsTable getter and spec
# field of its overnight cost (kEUR per MW or MWh, None read as 0), in a storage's column order.
Capacity = namedtuple("Capacity", "kind bounds overnight")
CAPACITIES = {
    "cap": Capacity("generation", "gen", "overnight_cost_keur_per_mw"),
    "sce": Capacity("storage_energy", "sto_energy", "overnight_cost_energy_keur_per_mwh"),
    "scc": Capacity("storage_charge", "sto_in", "overnight_cost_charge_keur_per_mw"),
    "scd": Capacity("storage_discharge", "sto_out", "overnight_cost_discharge_keur_per_mw"),
}


def capacity_costs(spec: TechnologySpec | StorageSpec, family: str) -> tuple:
    """A capacity's yearly (investment annuity, fixed O&M), kEUR per MW (MWh); storage has no fixed O&M."""
    overnight = getattr(spec, CAPACITIES[family].overnight) or 0.0
    fixed = spec.fixed_cost_keur_per_mw_yr if isinstance(spec, TechnologySpec) else 0.0
    return annuity(overnight, spec.interest_rate, spec.lifetime_yr), fixed


def _capacity_column(lp: LinearProgram, spec, family: str, b: Bounds, hours: int) -> tuple:
    """A capacity column's (low, up, cost), GW (GWh) and EUR; pinned, its fixed O&M goes to the offset."""
    invest, fixed = capacity_costs(spec, family)
    low, up = b.low / MW_PER_GW, b.up / MW_PER_GW
    if b.pinned:
        lp.offset += prorate_fixed_costs(fixed, hours) * EUR_PER_KEUR_MW * low
        return low, up, 0.0
    return low, up, prorate_fixed_costs(invest + fixed, hours) * EUR_PER_KEUR_MW


@dataclass(frozen=True)
class HeatBlock:
    """Heat-module inputs of one instance: config, per-country data, fleet."""

    config: HeatConfig
    demand: dict  # country -> ProfileSet of heat_demand_MWth
    cops: dict  # country -> ProfileSet of cop
    fleet: dict  # country -> {(bt,st,hpt): FleetUnit}; every country of `demand`
    targets_mw: dict  # country -> {(bt,st,hpt): np.ndarray}

    @classmethod
    def build(cls, config: HeatConfig, demand: dict, cops: dict) -> "HeatBlock":
        """Check each country's profiles align, compute its heat-output targets once, and size its fleet from them."""
        for c, d in demand.items():
            _check_aligned([*cops[c].profiles.values(), *d.profiles.values()])
        targets = {c: required_heat_output(config, d) for c, d in demand.items()}
        fleet = {c: size_fleet(config, targets[c], cops[c]) for c in demand}
        return cls(config=config, demand=demand, cops=cops, fleet=fleet, targets_mw=targets)


@dataclass(frozen=True)
class SystemInstance:
    """Everything the LP assembler needs for one scenario cell."""

    name: str
    countries: tuple
    window: ModelWindow
    loads_mw: dict  # country -> np.ndarray
    availability: dict  # (country, tech) -> np.ndarray, VRE hourly factors
    inflow_mwh: dict  # country -> np.ndarray (may be missing -> zero)
    techs: dict  # tech -> TechnologySpec
    storages: dict  # storage -> StorageSpec
    bounds: BoundsTable
    ntc: NtcMatrix
    co2_price: float
    bioenergy_cap_mwh_yr: dict  # country -> MWh per full year
    heat: HeatBlock | None = None

    def __post_init__(self):
        h = self.window.hours
        for c in self.countries:
            if len(self.loads_mw[c]) != h:
                raise AlignmentError(f"{c}: load length {len(self.loads_mw[c])} != {h}")
        for (c, g), af in self.availability.items():
            if len(af) != h:
                raise AlignmentError(f"{c}/{g}: availability length {len(af)} != {h}")
        for c, arr in self.inflow_mwh.items():
            if len(arr) != h:
                raise AlignmentError(f"{c}: inflow length {len(arr)} != {h}")
        if self.heat is not None:
            for c, targets in self.heat.targets_mw.items():
                for key, arr in targets.items():
                    if len(arr) != h:
                        raise AlignmentError(f"{c}/{key}: heat target length {len(arr)} != {h}")


def build_model(instance: SystemInstance) -> LinearProgram:
    """Assemble the full cost-minimization LP of one instance.

    Each family is added per key as arrays over the hours of the window;
    the column and row order is per key, hour by hour within a key.
    """
    H = instance.window.hours
    lp = LinearProgram(name=instance.name)
    countries = sorted(instance.countries)
    techs = sorted(instance.techs)
    storages = sorted(instance.storages)

    # Balance terms per country, (columns by hour, coefficient); RHS in GW.
    balance: dict = {c: [] for c in countries}
    rhs_gw = {c: np.asarray(instance.loads_mw[c], dtype=float) / MW_PER_GW for c in countries}

    # -- generation --------------------------------------------------------
    for c in countries:
        for g in techs:
            spec = instance.techs[g]
            b = instance.bounds.gen(c, g)
            if b.up == 0.0:
                continue  # technology absent in this country
            cap = lp.add_cols((c, g), {"cap": _capacity_column(lp, spec, "cap", b, H)})["cap"]
            if spec.tech_class == "variable_renewable":
                af = instance.availability.get((c, g))
                if af is None:
                    raise AlignmentError(f"{c}/{g}: no availability series")
                factor = np.asarray(af, dtype=float)
            else:
                factor = np.full(H, spec.availability)
            vcost = variable_cost(spec, instance.co2_price) * MW_PER_GW  # EUR/GWh
            up = factor * (b.low / MW_PER_GW) if b.pinned else INF  # a pinned capacity bounds the column
            gen = lp.add_cols((c, g), {"gen": (0.0, up, vcost)}, H)["gen"]
            if not b.pinned:
                lp.add_rows((c, g), {"gcap": ("L", 0.0, [(gen, 1.0), (cap, -factor)])}, H)
            balance[c].append((gen, 1.0))

    # -- electricity storage ------------------------------------------------
    for c in countries:
        # Inflow split between open PHS and reservoir by energy capacity.
        inflow_gwh = np.asarray(instance.inflow_mwh.get(c, np.zeros(H)), dtype=float) / MW_PER_GW
        inflow_weights = {}
        if inflow_gwh.any():
            energies = {s: instance.bounds.sto_energy(c, s).up for s in INFLOW_STORAGES if s in instance.storages}
            energies = {s: e for s, e in energies.items() if np.isfinite(e)}
            total = sum(energies.values())
            if total > 0:
                inflow_weights = {s: e / total for s, e in energies.items() if e > 0}

        for s in storages:
            spec: StorageSpec = instance.storages[s]
            bounds = {f: getattr(instance.bounds, CAPACITIES[f].bounds)(c, s) for f in ("sce", "scc", "scd")}
            if bounds["scd"].up == 0.0 and bounds["sce"].up == 0.0:
                continue  # storage absent
            # Capacity -> (operation column, capacity factor, marginal cost EUR/GWh, limit row).
            ops = {
                "scc": ("ch", spec.availability, spec.marginal_cost_charge_eur_per_mwh * MW_PER_GW, "sin"),
                "scd": ("dis", spec.availability, spec.marginal_cost_discharge_eur_per_mwh * MW_PER_GW, "sout"),
                "sce": ("soc", 1.0, 0.0, "scap"),
            }
            if bounds["scc"].up == 0.0:
                del bounds["scc"], ops["scc"]  # no charging
            cap = lp.add_cols((c, s), {f: _capacity_column(lp, spec, f, b, H) for f, b in bounds.items()})
            share = inflow_weights.get(s, 0.0)
            has_spill = s in INFLOW_STORAGES and share > 0.0

            # A pinned capacity bounds its operation column, any other gets a limit row.
            cols = {col: (0.0, factor * bounds[f].low / MW_PER_GW if bounds[f].pinned else INF, cost)
                    for f, (col, factor, cost, _) in ops.items()}
            if has_spill:
                cols["spl"] = (0.0, INF, 0.0)
            op = lp.add_cols((c, s), cols, H)
            limits = {row: ("L", 0.0, [(op[col], 1.0), (cap[f], -factor)])
                      for f, (col, factor, _, row) in ops.items() if not bounds[f].pinned}
            lp.add_rows((c, s), limits, H)

            # Cyclic state dynamics: soc[h] - soc[h-1] - ec*ch + dis/ed + spl = inflow;
            # hour 0 wraps to the last hour.
            dyn = [
                (op["soc"], 1.0),
                (np.roll(op["soc"], 1), -1.0),
                (op["dis"], 1.0 / spec.efficiency_discharge),
            ]
            if "ch" in op:
                dyn.append((op["ch"], -spec.efficiency_charge))
            if has_spill:
                dyn.append((op["spl"], 1.0))
            lp.add_rows((c, s), {"sdyn": ("E", share * inflow_gwh, dyn)}, H)

            if "ch" in op:
                balance[c].append((op["ch"], -1.0))
            balance[c].append((op["dis"], 1.0))

    # -- cross-border flows --------------------------------------------------
    inside = set(countries)
    for (a, b) in instance.ntc.pairs():
        if a not in inside or b not in inside:
            continue
        limit_gw = instance.ntc.get(a, b) / MW_PER_GW
        if limit_gw <= 0.0:
            continue
        flw = lp.add_cols((f"{a}>{b}",), {"flw": (0.0, limit_gw, 0.0)}, H)["flw"]
        balance[a].append((flw, -1.0))
        balance[b].append((flw, 1.0))

    # -- heat module ----------------------------------------------------------
    if instance.heat is not None:
        heat = instance.heat
        for c in countries:
            targets = heat.targets_mw.get(c, {})
            units = heat.fleet.get(c, {})
            cops = heat.cops.get(c)
            for unit in sorted(targets):
                bt, st, hpt = unit
                target_gw = np.asarray(targets[unit], dtype=float) / MW_PER_GW
                fu = units[unit]
                cop = cops.profiles[(st, hpt)].values
                ep = heat.config.ep_hours.get(unit, 0.0)
                if ep == 0.0:
                    # No tank: E is data; fold into the balance RHS.
                    rhs_gw[c] = rhs_gw[c] + electricity_for_heat(target_gw, cop)
                    continue
                key = (c, *unit)
                hc = lp.add_cols(
                    key,
                    {
                        "ho": (target_gw, target_gw, 0.0),
                        "hi": (0.0, fu.heat_output_capacity_mw_th / MW_PER_GW, 0.0),
                        "hl": (0.0, fu.heat_storage_capacity_mwh_th / MW_PER_GW, 0.0),
                        "e": (0.0, fu.electricity_input_capacity_mw_el / MW_PER_GW, 0.0),
                    },
                    H,
                )
                balance[c].append((hc["e"], -1.0))
                hdyn = [(hc["hl"], 1.0), (np.roll(hc["hl"], 1), -1.0), (hc["hi"], -1.0), (hc["ho"], 1.0)]
                hcop = [(hc["hi"], 1.0), (hc["e"], -cop)]
                lp.add_rows(key, {"hdyn": ("E", 0.0, hdyn), "hcop": ("E", 0.0, hcop)}, H)

    # -- energy balance ---------------------------------------------------------
    for c in countries:
        lp.add_rows((c,), {"bal": ("E", rhs_gw[c], balance[c])}, H)

    # -- annual bioenergy energy cap ---------------------------------------------
    gen = lp.col_family("gen")
    for c in countries:
        cap_mwh = instance.bioenergy_cap_mwh_yr.get(c)
        if cap_mwh is None or not np.isfinite(cap_mwh):
            continue
        cols = gen.member((c, "bioenergy"))
        if cols is None:
            continue
        lp.add_rows((c,), {"bio": ("L", prorate_fixed_costs(cap_mwh, H) / MW_PER_GW, [(cols, 1.0)])})

    return lp.freeze()


# ---------------------------------------------------------------------------
# Solution extraction
# ---------------------------------------------------------------------------


# Dispatch kind -> the LP column family it reads, in dispatch.csv's order.
DISPATCH_KINDS = {"generation": "gen", "charge": "ch", "discharge": "dis", "soc_mwh": "soc", "spill_mwh": "spl"}
# costs.csv's rows, in order: cost_breakdown's components (EUR), the LP objective and the heat supplied (MWh).
COST_COMPONENTS = ("investment", "fixed_om", "variable", "storage_marginal", "total", "objective", "heat_supplied_mwh")


class CellView:
    """Reads of a solved or a saved cell over its `hours`.

    Both hold `dispatch_mw`, `heat` and `costs_eur`, keyed and ordered as
    ``dispatch.csv``, ``heat.csv`` and ``costs.csv``.
    """

    def countries(self) -> list:
        return sorted({c for (c, _, _) in self.dispatch_mw})

    def load_mw(self, country: str) -> np.ndarray:
        return self.dispatch_mw[(country, "load", "electric")]

    def hp_load_mw(self, country: str) -> np.ndarray:
        return self.dispatch_mw.get((country, "load", "heat_pump"), np.zeros(self.hours))

    def generation_mw(self, country: str, tech: str) -> np.ndarray:
        return self.dispatch_mw.get((country, "generation", tech), np.zeros(self.hours))

    def heat_output_mw(self, country: str) -> np.ndarray:
        """The country's heat output (MW_th), added up unit by unit from zeros; zeros without heat pumps."""
        total = np.zeros(self.hours)
        traj = self.heat.get(country)
        for unit in traj.keys if traj else ():
            total += traj.heat_output_mw[unit]
        return total

    @property
    def heat_supplied_mwh(self) -> float:
        return self.costs_eur["heat_supplied_mwh"]


@dataclass
class SolvedSystem(CellView):
    """Model-unit solution mapped back to MW/MWh physical quantities, held as a saved cell holds them."""

    instance: SystemInstance
    capacities_mw: dict  # country -> {(kind, name): value}; energies in MWh
    dispatch_mw: dict  # (country, kind, name) -> np.ndarray, in dispatch.csv's order
    flows_mw: dict  # (from, to) -> np.ndarray
    heat: dict  # country -> HeatTrajectory, as heat.csv holds it
    costs_eur: dict  # component -> value, costs.csv's rows

    @property
    def hours(self) -> int:
        return self.instance.window.hours


def extract_solved(instance: SystemInstance, lp, solution) -> SolvedSystem:
    """Read a solved LP back into physical quantities and its costs.

    `dispatch_mw` holds the rows of ``dispatch.csv``, keyed and ordered as
    the file: each kind of :data:`DISPATCH_KINDS` over its sorted
    (country, name), then per sorted country ``load,electric`` and, for a
    country with heat pumps, ``load,heat_pump``. `heat` holds each country's
    trajectory as ``heat.csv`` does, and `costs_eur` the rows of ``costs.csv``:
    :func:`cost_breakdown`'s, the solution's objective and the heat supplied.
    """
    values = solution.values

    def hourly(family):
        fam = lp.col_family(family)
        return {key: values[idx] * MW_PER_GW for key, idx in zip(fam.keys, fam.index)}

    flw = {tuple(link.split(">")): arr for (link,), arr in hourly("flw").items()}
    heat_cols = {family: hourly(family) for family, _ in TRAJECTORY_FIELDS.values()}  # (c, bt, st, hpt) -> array

    # Capacities per country, in column order.
    caps: dict = {c: {} for c in instance.countries}
    cap_cols = []
    for family, capacity in CAPACITIES.items():
        fam = lp.col_family(family)
        cap_cols += [(int(idx), c, capacity.kind, name) for (c, name), idx in zip(fam.keys, fam.index)]
    for idx, c, kind, name in sorted(cap_cols):
        caps[c][(kind, name)] = float(values[idx]) * MW_PER_GW

    # Heat trajectories: folded (ep = 0) units, then the LP's column-backed units.
    heat: dict = {}
    heat_supplied = 0.0
    if instance.heat is not None:
        hb = instance.heat
        for c in sorted(instance.countries):
            targets = hb.targets_mw.get(c, {})
            if not targets:
                continue
            backed = [u for u in targets if (c, *u) in heat_cols["ho"]]  # build_model folded the rest
            traj = fixed_trajectory({u: t for u, t in targets.items() if u not in backed}, hb.cops[c])
            for f, (family, _) in TRAJECTORY_FIELDS.items():
                getattr(traj, f).update({u: heat_cols[family][(c, *u)] for u in backed})
            for unit in traj.keys:  # one unit at a time: costs.csv holds this sum's exact float
                heat_supplied += float(traj.heat_output_mw[unit].sum())
            heat[c] = traj
            units = hb.fleet[c].values()  # in size_fleet's sorted unit order
            caps[c][("heat_output", "heat_pump")] = sum(u.heat_output_capacity_mw_th for u in units)
            caps[c][("heat_storage_energy", "heat_pump")] = sum(u.heat_storage_capacity_mwh_th for u in units)
            caps[c][("heat_electricity", "heat_pump")] = sum(u.electricity_input_capacity_mw_el for u in units)

    dispatch = {(c, kind, name): arr for kind, family in DISPATCH_KINDS.items()
                for (c, name), arr in sorted(hourly(family).items())}  # keys are unique: no array is compared
    for c in sorted(instance.countries):
        dispatch[(c, "load", "electric")] = np.asarray(instance.loads_mw[c], dtype=float)
        if c in heat:
            dispatch[(c, "load", "heat_pump")] = heat[c].total_electricity_mw()

    costs = {**cost_breakdown(instance, caps, dispatch), "objective": solution.objective,
             "heat_supplied_mwh": heat_supplied}
    return SolvedSystem(instance=instance, capacities_mw=caps, dispatch_mw=dispatch, flows_mw=flw, heat=heat,
                        costs_eur=costs)


def cost_breakdown(instance: SystemInstance, caps: dict, dispatch: dict) -> dict:
    """Recompute objective components from physical quantities (EUR).

    Prices each capacity of `caps`, the LP's capacity columns in column
    order, from :func:`capacity_costs` as the assembler does, so investment
    + fixed_om + variable + storage_marginal reproduces the LP objective
    (additivity is asserted in tests, not here). Variable cost runs over the
    ``generation`` rows of `dispatch` (``dispatch.csv``'s), storage marginals
    over its ``discharge`` rows, each with its storage's ``charge`` row if any.
    """
    H = instance.window.hours
    family_of = {capacity.kind: family for family, capacity in CAPACITIES.items()}
    invest = fixed_om = var = marginal = 0.0
    for c in sorted(instance.countries):
        for (kind, name), cap_mw in caps[c].items():
            family = family_of.get(kind)
            if family is None:
                continue  # a heat-pump fleet capacity, not an LP column
            spec = instance.techs[name] if family == "cap" else instance.storages[name]
            annual, fixed = capacity_costs(spec, family)
            b = getattr(instance.bounds, CAPACITIES[family].bounds)(c, name)
            if b.pinned:
                fixed_om += prorate_fixed_costs(fixed, H) * EUR_PER_KEUR_MW * (b.low / MW_PER_GW)
            else:
                invest += prorate_fixed_costs(annual, H) * EUR_PER_KEUR_MW * (cap_mw / MW_PER_GW)
                fixed_om += prorate_fixed_costs(fixed, H) * EUR_PER_KEUR_MW * (cap_mw / MW_PER_GW)
    for (c, kind, name), mw in dispatch.items():
        if kind == "generation":
            var += variable_cost(instance.techs[name], instance.co2_price) * float(mw.sum())
        elif kind == "discharge":
            spec = instance.storages[name]
            if (c, "charge", name) in dispatch:
                marginal += spec.marginal_cost_charge_eur_per_mwh * float(dispatch[(c, "charge", name)].sum())
            marginal += spec.marginal_cost_discharge_eur_per_mwh * float(mw.sum())
    return {"investment": invest, "fixed_om": fixed_om, "variable": var, "storage_marginal": marginal,
            "total": invest + fixed_om + var + marginal}
