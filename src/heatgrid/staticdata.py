"""Static technology, cost, and bound data; bundled default dataset.

The bundled file ``data/static.yaml`` carries the cost/technology table and
the capacity-bounds table verbatim (values exactly as printed in the source
tables, including two quirks kept on purpose):

* Luxembourg run-of-river is bounded [0.04, 38] GW -- a strikingly wide
  range next to every other (pinned) hydro entry. Reproduced as printed.
* Germany lignite prints lower 14.6 / upper 14.5 GW. The table pins lignite
  everywhere else, so the model normalizer treats a lower > upper pair
  within print precision (0.1 GW) as pinned at the lower value; anything
  wider raises :class:`InfeasibleBounds`.

Schema of ``static.yaml`` (units in key names; GW/GWh/TWh as printed):

    schema: heatgrid-static-v1
    co2_price_eur_per_t: <number>
    generation: {tech: {class, interest_rate, lifetime_yr, availability,
                        overnight_cost_keur_per_mw, fixed_cost_keur_per_mw_yr,
                        efficiency, carbon_content_t_per_mwh_fuel,
                        fuel_cost_eur_per_mwh_fuel}}
    storage: {row: {interest_rate, lifetime_yr, availability,
                    overnight_cost_energy_keur_per_mwh,
                    overnight_cost_charge_keur_per_mw,
                    overnight_cost_discharge_keur_per_mw (null = none printed),
                    efficiency_charge, efficiency_discharge,
                    marginal_cost_charge_eur_per_mwh,
                    marginal_cost_discharge_eur_per_mwh}}
      where row 'phs' covers both the open and the closed pumped-hydro
      variants (one printed row) and is expanded by the loader.
    capacity_bounds_gw: {country: {row: {low, up}}}
      rows: generation techs plus li_ion_power_in_out, li_ion_energy_gwh,
      p2g2p_power_in_out, p2g2p_energy_gwh, phs_closed_power_in/out,
      phs_closed_energy_gwh, phs_open_power_in/out, phs_open_energy_gwh,
      reservoir_power_out, reservoir_energy_twh.
    defaults:   # artifact-chosen values that the source tables do not print
      bioenergy_generation_cap_mwh_yr: {country: MWh per year}
      ntc_mw: {from_country: {to_country: MW}}   # directed, explicit

The sidecar ``data/heat_pump_capacities.csv`` is the reference heat-pump
fleet table (GW_th / GWh_th / GW_el per country plus an ``All`` total row).

Static YAML is parsed and canonicalised through libyaml (PyYAML's
``CSafeLoader``/``CSafeDumper``) where PyYAML was built with it, and through
the pure-Python ``SafeLoader``/``SafeDumper`` otherwise. Both pairs share
PyYAML's constructor, representer and resolver, so the parsed dict and the
canonical bytes are the same either way; that matters because the bytes of
:func:`emit_static` feed every dataset provenance hash.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path

import yaml

from .ids import COUNTRIES, STORAGES, TECH_CLASS, TECHNOLOGIES

SCHEMA = "heatgrid-static-v1"

# libyaml parses and emits the static tables several times faster than the
# pure-Python classes, with the same dicts and bytes (tests/test_static_data.py).
_Loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_Dumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)

# Printed tables round capacities to 0.1 GW; a lower/upper contradiction
# within this precision is a rounding artifact, not an infeasible input.
PRINT_PRECISION_GW = 0.1


class StaticDataError(ValueError):
    pass


class InfeasibleBounds(StaticDataError):
    """A capacity lower bound genuinely exceeds its upper bound."""


@dataclass(frozen=True)
class TechnologySpec:
    """Cost and technical parameters of one generation technology."""

    name: str
    tech_class: str  # variable_renewable | dispatchable_renewable | non_renewable
    interest_rate: float  # fraction per year
    lifetime_yr: float
    availability: float  # fraction, derates dispatchable capacity uniformly
    overnight_cost_keur_per_mw: float
    fixed_cost_keur_per_mw_yr: float
    efficiency: float  # MWh_el per MWh_fuel
    carbon_content_t_per_mwh_fuel: float
    fuel_cost_eur_per_mwh_fuel: float

    def __post_init__(self):
        if not 0 < self.efficiency <= 1:
            raise StaticDataError(f"{self.name}: efficiency {self.efficiency} not in (0,1]")
        _check_spec(self)


@dataclass(frozen=True)
class StorageSpec:
    """Cost and technical parameters of one electricity storage."""

    name: str
    interest_rate: float
    lifetime_yr: float
    availability: float  # applied to charge/discharge power limits
    overnight_cost_energy_keur_per_mwh: float
    overnight_cost_charge_keur_per_mw: float
    overnight_cost_discharge_keur_per_mw: float | None  # None: no cost printed
    efficiency_charge: float
    efficiency_discharge: float
    marginal_cost_charge_eur_per_mwh: float
    marginal_cost_discharge_eur_per_mwh: float

    def __post_init__(self):
        for eff in (self.efficiency_charge, self.efficiency_discharge):
            if not 0 < eff <= 1:
                raise StaticDataError(f"{self.name}: efficiency {eff} not in (0,1]")
        _check_spec(self)


def _check_spec(spec: TechnologySpec | StorageSpec) -> None:
    """Refuse an availability, lifetime or interest rate that the annuity or the model cannot take."""
    if not 0 < spec.availability <= 1:
        raise StaticDataError(f"{spec.name}: availability {spec.availability} not in (0,1]")
    if not spec.lifetime_yr >= 1:
        raise StaticDataError(f"{spec.name}: lifetime {spec.lifetime_yr} < 1")
    if not spec.interest_rate >= 0:
        raise StaticDataError(f"{spec.name}: interest rate {spec.interest_rate} < 0")


@dataclass(frozen=True)
class Bounds:
    low: float
    up: float

    def __post_init__(self):  # written so that a NaN fails them
        if not self.low <= self.up:
            raise InfeasibleBounds(f"lower {self.low} not <= upper {self.up}")
        if not self.low >= 0:
            raise StaticDataError(f"lower bound {self.low} not >= 0")

    @property
    def pinned(self) -> bool:
        return self.low == self.up


def _normalize_pair(low: float, up: float, context: str) -> Bounds:
    """Build Bounds, healing print-precision lower>upper contradictions; an error names `context`."""
    if low > up:
        if low - up <= PRINT_PRECISION_GW * 1000 + 1e-9:  # MW here
            return Bounds(low, low)  # pinned technology, rounding artifact
        raise InfeasibleBounds(f"{context}: lower {low} > upper {up}")
    try:
        return Bounds(low, up)
    except StaticDataError as exc:  # a NaN or a negative lower bound
        raise type(exc)(f"{context}: {exc}") from None


@dataclass(frozen=True)
class BoundsTable:
    """Capacity bounds in MW / MWh, normalized and model-ready.

    Fixed technologies carry ``low == up``. Keys absent from the table map
    to (0, 0): the technology does not exist in that country.
    """

    gen_mw: dict  # (country, tech) -> Bounds
    storage_power_in_mw: dict  # (country, storage) -> Bounds
    storage_power_out_mw: dict
    storage_energy_mwh: dict

    def gen(self, country: str, tech: str) -> Bounds:
        return self.gen_mw.get((country, tech), Bounds(0.0, 0.0))

    def sto_in(self, country: str, sto: str) -> Bounds:
        return self.storage_power_in_mw.get((country, sto), Bounds(0.0, 0.0))

    def sto_out(self, country: str, sto: str) -> Bounds:
        return self.storage_power_out_mw.get((country, sto), Bounds(0.0, 0.0))

    def sto_energy(self, country: str, sto: str) -> Bounds:
        return self.storage_energy_mwh.get((country, sto), Bounds(0.0, 0.0))

    def replace(self, gen: dict) -> "BoundsTable":
        """This table with the generation bounds of `gen` put in."""
        return BoundsTable({**self.gen_mw, **gen}, self.storage_power_in_mw, self.storage_power_out_mw,
                           self.storage_energy_mwh)


@dataclass(frozen=True)
class NtcMatrix:
    """Directed net-transfer capacities in MW; absent pair means 0."""

    limits_mw: dict  # (from, to) -> MW

    def __post_init__(self):
        for (a, b), mw in self.limits_mw.items():
            if mw < 0:
                raise StaticDataError(f"NTC {a}->{b} negative: {mw}")
            if a == b:
                raise StaticDataError(f"NTC {a}->{b} links a country to itself")

    def get(self, from_country: str, to_country: str) -> float:
        return self.limits_mw.get((from_country, to_country), 0.0)

    def pairs(self) -> list:
        return sorted(self.limits_mw)

    def restrict(self, countries) -> "NtcMatrix":
        keep = set(countries)
        return NtcMatrix(
            {(a, b): mw for (a, b), mw in self.limits_mw.items() if a in keep and b in keep}
        )


@dataclass(frozen=True)
class StaticData:
    """Parsed static dataset: raw cells plus model-ready structures."""

    raw: dict
    technologies: dict  # tech -> TechnologySpec
    storages: dict  # storage -> StorageSpec
    bounds: BoundsTable
    ntc: NtcMatrix
    co2_price_eur_per_t: float
    bioenergy_cap_mwh_yr: dict  # country -> MWh/yr


# The keys of a generation or storage row that are read as numbers, in the spec's field order.
_GEN_FIELDS = tuple(f.name for f in fields(TechnologySpec) if f.name not in ("name", "tech_class"))
_STO_FIELDS = tuple(f.name for f in fields(StorageSpec) if f.name != "name")

# Storage rows as printed -> model storages they parameterize.
_STORAGE_ROW_MAP = {
    "li_ion": ("li_ion",),
    "p2g2p": ("p2g2p",),
    "phs": ("phs_closed", "phs_open"),
    "reservoir": ("reservoir",),
}


# Storage rows of the bounds table: key suffix -> the BoundsTable fields the
# row fills, and MW (MWh) per printed GW (GWh, TWh).
_STORAGE_BOUND_ROWS = {
    "_power_in_out": (("storage_power_in_mw", "storage_power_out_mw"), 1e3),
    "_power_in": (("storage_power_in_mw",), 1e3),
    "_power_out": (("storage_power_out_mw",), 1e3),
    "_energy_gwh": (("storage_energy_mwh",), 1e3),
    "_energy_twh": (("storage_energy_mwh",), 1e6),
}


def bundled_static_path() -> Path:
    return Path(resources.files("heatgrid").joinpath("data/static.yaml"))


def bundled_fleet_table_path() -> Path:
    return Path(resources.files("heatgrid").joinpath("data/heat_pump_capacities.csv"))


def emit_static(raw: dict) -> str:
    """Canonical YAML text of a raw static dataset (byte-stable)."""
    return yaml.dump(raw, Dumper=_Dumper, sort_keys=True, default_flow_style=False, width=100)


def load_static(path=None) -> StaticData:
    """Load and validate a static dataset (bundled one by default).

    A file that is not YAML, holds no mapping, lacks a key the tables need,
    holds a table, row or bounds cell that is not a mapping, or a value that
    is not a number where the tables need one raises :class:`StaticDataError`
    naming the file.
    """
    path = Path(path) if path is not None else bundled_static_path()
    with path.open() as fh:
        try:
            raw = yaml.load(fh, Loader=_Loader)
        except yaml.YAMLError as exc:  # on one line; its marks give line and column
            raise StaticDataError(f"{path}: not valid YAML: {' '.join(str(exc).split())}") from None
    if not isinstance(raw, dict):
        raise StaticDataError(f"{path}: expected a mapping of tables, got {type(raw).__name__}")
    if raw.get("schema") != SCHEMA:
        raise StaticDataError(f"{path}: schema {raw.get('schema')!r} != {SCHEMA!r}")
    try:
        return _static_from_raw(raw)
    except KeyError as exc:
        raise StaticDataError(f"{path}: missing key {exc.args[0]!r}") from None
    except StaticDataError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _mapping(value, *key_path) -> dict:
    """`value`, which the static file holds at `key_path`, if it is a mapping."""
    if not isinstance(value, dict):
        raise StaticDataError(f"{'.'.join(map(str, key_path))} is not a mapping")
    return value


def _number(value, *key_path) -> float:
    """`value`, which the static file holds at `key_path`, as a float."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise StaticDataError(f"{'.'.join(map(str, key_path))} is not a number: {value!r}") from None


def _rows(table, *key_path):
    """The ``(key, row)`` pairs of a table whose rows are mappings."""
    for key, row in _mapping(table, *key_path).items():
        yield key, _mapping(row, *key_path, key)


def _static_from_raw(raw: dict) -> StaticData:
    technologies = {}
    for tech, row in _rows(raw["generation"], "generation"):
        if tech not in TECHNOLOGIES:
            raise StaticDataError(f"unknown generation technology {tech!r}")
        if row["class"] != TECH_CLASS[tech]:
            raise StaticDataError(f"{tech}: class {row['class']} != {TECH_CLASS[tech]}")
        technologies[tech] = TechnologySpec(
            name=tech, tech_class=row["class"], **{f: _number(row[f], "generation", tech, f) for f in _GEN_FIELDS}
        )
    missing = set(TECHNOLOGIES) - set(technologies)
    if missing:
        raise StaticDataError(f"generation table missing {sorted(missing)}")

    storages = {}
    for row_name, row in _rows(raw["storage"], "storage"):
        targets = _STORAGE_ROW_MAP.get(row_name)
        if targets is None:
            raise StaticDataError(f"unknown storage row {row_name!r}")
        numbers = {
            f: None if f == "overnight_cost_discharge_keur_per_mw" and row[f] is None  # no cost printed
            else _number(row[f], "storage", row_name, f)
            for f in _STO_FIELDS
        }
        for target in targets:
            storages[target] = StorageSpec(name=target, **numbers)
    missing = set(STORAGES) - set(storages)
    if missing:
        raise StaticDataError(f"storage table missing {sorted(missing)}")

    gen_mw = {}
    storage_bounds = {"storage_power_in_mw": {}, "storage_power_out_mw": {}, "storage_energy_mwh": {}}
    for country, rows in _rows(raw["capacity_bounds_gw"], "capacity_bounds_gw"):
        if country not in COUNTRIES:
            raise StaticDataError(f"unknown country {country!r} in bounds table")
        for key, cell in _rows(rows, "capacity_bounds_gw", country):
            low, up = (_number(cell[b], "capacity_bounds_gw", country, key, b) for b in ("low", "up"))
            if key in TECHNOLOGIES:
                gen_mw[(country, key)] = _normalize_pair(low * 1e3, up * 1e3, f"{country}/{key}")
                continue
            suffix = next((suffix for suffix in _STORAGE_BOUND_ROWS if key.endswith(suffix)), None)
            if suffix is None:
                raise StaticDataError(f"unknown bounds row {key!r} for {country}")
            names, mw_per_unit = _STORAGE_BOUND_ROWS[suffix]
            b = _normalize_pair(low * mw_per_unit, up * mw_per_unit, f"{country}/{key}")
            for name in names:
                storage_bounds[name][(country, key[: -len(suffix)])] = b

    defaults = _mapping(raw.get("defaults", {}), "defaults")
    ntc_limits = {}
    for frm, tos in _rows(defaults.get("ntc_mw", {}), "defaults", "ntc_mw"):
        for to, mw in tos.items():
            ntc_limits[(frm, to)] = _number(mw, "defaults", "ntc_mw", frm, to)
    bio_key = "bioenergy_generation_cap_mwh_yr"
    bio_caps = {
        c: _number(v, "defaults", bio_key, c)
        for c, v in _mapping(defaults.get(bio_key, {}), "defaults", bio_key).items()
    }

    return StaticData(
        raw=raw,
        technologies=technologies,
        storages=storages,
        bounds=BoundsTable(gen_mw, **storage_bounds),
        ntc=NtcMatrix(ntc_limits),
        co2_price_eur_per_t=_number(raw["co2_price_eur_per_t"], "co2_price_eur_per_t"),
        bioenergy_cap_mwh_yr=bio_caps,
    )


def load_fleet_table(path=None) -> dict:
    """Reference heat-pump fleet table: country -> (GW_th, GWh_th, GW_el)."""
    path = Path(path) if path is not None else bundled_fleet_table_path()
    out = {}
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        expected = ["country", "heat_output_gw_th", "heat_storage_gwh_th", "electricity_input_gw_el"]
        if header != expected:
            raise StaticDataError(f"{path}: header {header} != {expected}")
        for row in reader:
            out[row[0]] = (float(row[1]), float(row[2]), float(row[3]))
    return out
