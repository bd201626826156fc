"""Canonical identifier space shared by every module.

All other modules key their data by the string identifiers defined here.
Identifiers are deliberately plain snake_case strings (not enums) so they
can round-trip through CSV/YAML/JSON without conversion; validators check
membership against the tuples below.
"""

from __future__ import annotations

# Countries covered by the bundled dataset. Switzerland participates in the
# power system but carries no heat-pump rollout (empty heat demand set).
COUNTRIES = ("AT", "BE", "CH", "DE", "DK", "FR", "IT", "LU", "NL")

# Generation technologies, in merit-order-agnostic canonical order.
VARIABLE_RENEWABLES = ("solar_pv", "wind_onshore", "wind_offshore", "run_of_river")
DISPATCHABLE_RENEWABLES = ("bioenergy",)
NON_RENEWABLES = ("ccgt", "hard_coal", "lignite", "nuclear", "oil", "other")
TECHNOLOGIES = VARIABLE_RENEWABLES + DISPATCHABLE_RENEWABLES + NON_RENEWABLES

TECH_CLASS = {
    **{t: "variable_renewable" for t in VARIABLE_RENEWABLES},
    **{t: "dispatchable_renewable" for t in DISPATCHABLE_RENEWABLES},
    **{t: "non_renewable" for t in NON_RENEWABLES},
}

# Electricity storage. Open PHS and the reservoir receive natural inflow.
# The reservoir has no grid charging (its charge bound is zero): its state
# of charge is fed by inflows only and drained by its turbine.
STORAGES = ("li_ion", "p2g2p", "phs_closed", "phs_open", "reservoir")
INFLOW_STORAGES = ("phs_open", "reservoir")

# Firm capacity = dispatchable generation plus storage discharge power.
DISPATCHABLE_TECHNOLOGIES = DISPATCHABLE_RENEWABLES + NON_RENEWABLES

# Heat-module index sets.
BUILDING_TYPES = ("single_family", "multifamily", "commercial")
SINKS = ("space", "water")
HEAT_PUMP_TYPES = ("air", "ground", "water")

# Hourly series quantities (base part of the CSV `quantity` column).
QUANTITIES = (
    "electric_load_MW",
    "heat_demand_MWth",
    "availability_factor",
    "cop",
    "hydro_inflow_MWh",
)

HOURS_PER_YEAR = 8760  # leap days are dropped at ingestion

# (name, admissible ids) of each dot-separated subkey, in order; other quantities take none.
SUBKEYS = {
    "availability_factor": (("technology", VARIABLE_RENEWABLES),),
    "heat_demand_MWth": (("building_type", BUILDING_TYPES), ("sink", SINKS)),
    "cop": (("sink", SINKS), ("heat_pump_type", HEAT_PUMP_TYPES)),
}


def check_country(code: str) -> str:
    if code not in COUNTRIES:
        raise ValueError(f"unknown country code {code!r}; expected one of {COUNTRIES}")
    return code


def check_quantity(name: str) -> str:
    if name not in QUANTITIES:
        raise ValueError(f"unknown quantity {name!r}; expected one of {QUANTITIES}")
    return name


def valid_subkeys(quantity: str, subs: tuple) -> bool:
    """Whether `subs` names one member of `quantity`'s family in :data:`SUBKEYS`."""
    schema = SUBKEYS.get(quantity, ())
    return len(subs) == len(schema) and all(s in ids for s, (_, ids) in zip(subs, schema))
