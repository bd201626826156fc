"""Heat-pump module: coverage shares, thermal storage, COP, fleet sizing.

Per (building type bt, sink st, heat-pump type hpt) and hour h, with an
exogenous coverage share ``s`` and heat demand ``hd``:

    heat output    HO[h] = s * hd[h]                       (coverage)
    storage state  HL[h] = HL[h-1] + HI[h] - HO[h]         (lossless tank)
    electricity    HI[h] = cop[h] * E[h]                   (COP link)

Fleet sizing is not a cost decision: heat-output capacity is the peak of
HO, electricity-input capacity the peak of HO/cop (the two peaks may fall
in different hours), and tank size is ``ep`` hours of heat-output
capacity. Storage is cyclic over the window (HL before hour 0 equals HL
of the last hour), lossless, and shares the heat-output nameplate for
charging. Space and water sinks keep separate COPs and are never pooled.

A country's heat demand is keyed (bt, st) and its COP (st, hpt); its
targets HO are computed once and :func:`size_fleet` sizes its units from them.
:func:`validate_trajectory` recomputes these equations from a country's
trajectory and reports their violations by check in a
:class:`~heatgrid.solver.ResidualReport`, the report the LP's rows get.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ids import BUILDING_TYPES, SINKS, valid_subkeys
from .series import AlignmentError, ProfileSet
from .solver import FamilyResidual, ResidualReport


class DivisionDomain(ValueError):
    """COP outside (0, inf): the electricity conversion is undefined."""


@dataclass(frozen=True)
class HeatConfig:
    """Coverage shares and storage energy-to-power ratios per unit.

    `shares` and `ep_hours` map (bt, st, hpt) -> value; units absent from
    the maps are inactive. Base scenarios use a uniform share and a single
    active pump type, which `uniform()` builds.
    """

    shares: dict = field(default_factory=dict)  # (bt, st, hpt) -> fraction
    ep_hours: dict = field(default_factory=dict)  # (bt, st, hpt) -> hours

    def __post_init__(self):
        for key, s in self.shares.items():
            if not (valid_subkeys("heat_demand_MWth", key[:2]) and valid_subkeys("cop", key[1:])):  # (bt, st, hpt)
                raise ValueError(f"unknown heat unit {key}")
            if not 0.0 <= s <= 1.0:
                raise ValueError(f"share {s} for {key} not in [0,1]")
            if not self.ep_hours.get(key, 0.0) >= 0.0:
                raise ValueError(f"ep {self.ep_hours[key]} for {key} not >= 0")
        extra = set(self.ep_hours) - set(self.shares)
        if extra:
            raise ValueError(f"ep given for inactive units {sorted(extra)}")

    @classmethod
    def uniform(cls, share: float, ep: float, hpt: str = "air") -> "HeatConfig":
        keys = [(bt, st, hpt) for bt in BUILDING_TYPES for st in SINKS]
        return cls(shares={k: share for k in keys}, ep_hours={k: ep for k in keys})


@dataclass(frozen=True)
class FleetUnit:
    """Sized capacities of one (bt, st, hpt) unit in one country."""

    heat_output_capacity_mw_th: float
    heat_storage_capacity_mwh_th: float
    electricity_input_capacity_mw_el: float

    def __post_init__(self):
        for v in (
            self.heat_output_capacity_mw_th,
            self.heat_storage_capacity_mwh_th,
            self.electricity_input_capacity_mw_el,
        ):
            if not v >= 0:
                raise ValueError(f"fleet capacity {v} not >= 0")


# Each HeatTrajectory field, in order: (the LP column family it reads, its heat.csv column).
TRAJECTORY_FIELDS = {
    "heat_output_mw": ("ho", "heat_output_mw_th"), "heat_generated_mw": ("hi", "heat_generated_mw_th"),
    "storage_level_mwh": ("hl", "storage_level_mwh_th"), "electricity_mw": ("e", "electricity_mw_el"),
}


@dataclass(frozen=True)
class HeatTrajectory:
    """Hourly heat-module trajectories of one country, solved or loaded from ``heat.csv``.

    Arrays are keyed (bt, st, hpt); all four families share hour count.
    """

    heat_output_mw: dict  # HO
    heat_generated_mw: dict  # HI
    storage_level_mwh: dict  # HL
    electricity_mw: dict  # E

    def unit_arrays(self, unit) -> tuple:
        """The arrays of `unit`, in :data:`TRAJECTORY_FIELDS` order."""
        return tuple(getattr(self, f)[unit] for f in TRAJECTORY_FIELDS)

    @property
    def keys(self) -> list:
        return sorted(self.heat_output_mw)

    def total_electricity_mw(self) -> np.ndarray:
        return np.sum([self.electricity_mw[k] for k in self.keys], axis=0)


def required_heat_output(config: HeatConfig, demand: ProfileSet) -> dict:
    """HO target per active unit: share times heat demand, elementwise (MW_th)."""
    out = {}
    for (bt, st, hpt), s in config.shares.items():
        profile = demand.profiles.get((bt, st))
        if profile is None:
            continue  # country without this demand category
        out[(bt, st, hpt)] = s * profile.values
    return out


def electricity_for_heat(hi_h, cop_h):
    """Electricity drawn to generate HI at the given COP: E = HI / cop."""
    cop = np.asarray(cop_h, dtype=float)
    if (cop <= 0).any():
        raise DivisionDomain(f"cop must be > 0, got {cop.min()}")
    return np.asarray(hi_h, dtype=float) / cop


def size_fleet(config: HeatConfig, targets: dict, cops: ProfileSet) -> dict:
    """Size one country's fleet to meet its heat-output `targets` without storage.

    Per unit: heat-output capacity = max_h HO[h]; electricity-input
    capacity = max_h HO[h]/cop[h] (its own argmax); tank = ep * output.
    Returns {(bt, st, hpt): FleetUnit} in sorted unit order; no targets
    (a country without heat demand) yields an empty fleet.
    """
    units = {}
    for key, ho in sorted(targets.items()):
        _, st, hpt = key
        cop_profile = cops.profiles.get((st, hpt))
        if cop_profile is None:
            raise AlignmentError(f"{cops.country}: no COP profile for ({st}, {hpt})")
        out_cap = float(ho.max())
        in_cap = float(electricity_for_heat(ho, cop_profile.values).max())
        ep = config.ep_hours.get(key, 0.0)
        units[key] = FleetUnit(
            heat_output_capacity_mw_th=out_cap,
            heat_storage_capacity_mwh_th=ep * out_cap,
            electricity_input_capacity_mw_el=in_cap,
        )
    return units


def validate_trajectory(
    traj: HeatTrajectory,
    fleet: dict,
    targets: dict,
    cops: ProfileSet,
    country: str,
) -> ResidualReport:
    """Recompute every heat-module equation from raw trajectory values.

    `fleet` maps country -> {(bt, st, hpt): FleetUnit}. The report has one
    family per check, over the hourly violations of every unit the check
    applies to (MW, or MWh for the tank), in this order:

        storage_recursion   |HL[h] - HL[h-1] - HI[h] + HO[h]|, cyclic
        storage_bounds      HL outside [0, tank]
        cop_link            |HI - cop * E|
        target_mismatch     |HO - s * hd|
        capacity_violation  HI or HO over output capacity, E over input capacity
        ep_zero_identity    |HO - HI| of a unit without a tank

    A check that applies to no unit has no family. Violations are data for
    the caller to judge, not exceptions; a NaN in the trajectory makes the
    report's maximum NaN, which passes no tolerance.
    """
    units = fleet.get(country, {})
    checks: dict = {name: [] for name in ("storage_recursion", "storage_bounds", "cop_link", "target_mismatch",
                                          "capacity_violation", "ep_zero_identity")}
    for key in traj.keys:
        ho, hi, hl, e = (np.asarray(arr, dtype=float) for arr in traj.unit_arrays(key))
        if not (len(ho) == len(hi) == len(hl) == len(e)):
            raise AlignmentError(f"{country}/{key}: trajectory arrays differ in length")
        unit = units.get(key, FleetUnit(0.0, 0.0, 0.0))
        tank = unit.heat_storage_capacity_mwh_th
        _, st, hpt = key
        cop = cops.profiles[(st, hpt)].values
        target = np.asarray(targets.get(key, np.zeros_like(ho)), dtype=float)
        checks["storage_recursion"].append(np.abs(hl - np.roll(hl, 1) - hi + ho))
        checks["storage_bounds"].append(np.maximum(np.maximum(-hl, hl - tank), 0.0))
        checks["cop_link"].append(np.abs(hi - cop * e))
        checks["target_mismatch"].append(np.abs(ho - target))
        over = np.maximum(np.maximum(hi, ho) - unit.heat_output_capacity_mw_th,
                          e - unit.electricity_input_capacity_mw_el)
        checks["capacity_violation"].append(np.maximum(over, 0.0))
        if tank == 0.0:
            checks["ep_zero_identity"].append(np.abs(ho - hi))
    return ResidualReport({name: FamilyResidual.of(np.concatenate(parts)) for name, parts in checks.items() if parts})


def fixed_trajectory(targets: dict, cops: ProfileSet) -> HeatTrajectory:
    """Trajectory of a storage-less fleet: HI = HO, HL = 0, E = HO/cop."""
    ho, hi, hl, e = {}, {}, {}, {}
    for key, target in targets.items():
        _, st, hpt = key
        cop = cops.profiles[(st, hpt)].values
        ho[key] = np.asarray(target, dtype=float)
        hi[key] = ho[key].copy()
        hl[key] = np.zeros_like(ho[key])
        e[key] = electricity_for_heat(ho[key], cop)
    return HeatTrajectory(ho, hi, hl, e)
