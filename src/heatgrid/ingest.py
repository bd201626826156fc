"""CSV ingestion, validation, and canonical re-emission.

Input schema (one file may carry several countries and quantities):

    timestamp,country,quantity,value

* ``timestamp``: ISO-8601 hourly UTC, e.g. ``2009-07-01T13:00:00Z``.
* ``country``: canonical two-letter code.
* ``quantity``: a base quantity, optionally extended with dot-separated
  subkeys that identify the member of a family:

      electric_load_MW
      hydro_inflow_MWh
      availability_factor.<technology>        e.g. availability_factor.solar_pv
      heat_demand_MWth.<building_type>.<sink> e.g. heat_demand_MWth.single_family.space
      cop.<sink>.<heat_pump_type>             e.g. cop.space.air

* ``value``: decimal number in canonical units (MW, MW_th, MWh, or
  dimensionless).

Rows of a (country, quantity) group must form a gapless hourly sequence;
rows falling on Feb 29 are dropped so every series lives on the no-leap
calendar. Canonical emission sorts groups lexicographically and formats
values with ``repr`` so ingest -> emit round trips are byte-identical.
"""

from __future__ import annotations

import csv
from collections.abc import Iterator
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .ids import (
    BUILDING_TYPES,
    HEAT_PUMP_TYPES,
    QUANTITIES,
    SINKS,
    VARIABLE_RENEWABLES,
    check_country,
)
from .series import (
    AlignmentError,
    CopSet,
    HeatDemandSet,
    HourlySeries,
    MissingValue,
    SeriesError,
    is_leap_hour,
    noleap_hours_between,
    noleap_stamps,
    window_july_june,
)

HEADER = ("timestamp", "country", "quantity", "value")


class BadHeader(SeriesError):
    """CSV header does not match the documented schema."""


def parse_quantity(full: str) -> tuple[str, tuple[str, ...]]:
    """Split a quantity column into (base, subkeys) and validate both."""
    base, *subs = full.split(".")
    if base not in QUANTITIES:
        raise BadHeader(f"unknown quantity {full!r}")
    subs = tuple(subs)
    if base == "availability_factor":
        if len(subs) != 1 or subs[0] not in VARIABLE_RENEWABLES:
            raise BadHeader(
                f"availability_factor needs one technology subkey, got {full!r}"
            )
    elif base == "heat_demand_MWth":
        if len(subs) != 2 or subs[0] not in BUILDING_TYPES or subs[1] not in SINKS:
            raise BadHeader(f"heat_demand_MWth needs <building_type>.<sink>, got {full!r}")
    elif base == "cop":
        if len(subs) != 2 or subs[0] not in SINKS or subs[1] not in HEAT_PUMP_TYPES:
            raise BadHeader(f"cop needs <sink>.<heat_pump_type>, got {full!r}")
    elif subs:
        raise BadHeader(f"quantity {base} takes no subkeys, got {full!r}")
    return base, subs


def _parse_timestamp(text: str) -> datetime:
    raw = text.strip()
    if raw.endswith("Z"):
        raw = raw[:-1] + "+00:00"
    ts = datetime.fromisoformat(raw)
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    ts = ts.astimezone(timezone.utc)
    if ts.minute or ts.second or ts.microsecond:
        raise SeriesError(f"timestamp {text!r} is not on the hour")
    return ts


def ingest_file(path) -> dict[tuple[str, str], HourlySeries]:
    """Parse one CSV file into {(country, full_quantity): HourlySeries}."""
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = tuple(next(reader))
        except StopIteration:
            raise BadHeader(f"{path}: empty file") from None
        if header != HEADER:
            raise BadHeader(f"{path}: header {header} != {HEADER}")
        groups: dict[tuple[str, str], list[tuple[datetime, float]]] = {}
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise BadHeader(f"{path}:{lineno}: expected 4 fields, got {len(row)}")
            ts = _parse_timestamp(row[0])
            if is_leap_hour(ts):
                continue  # no-leap calendar
            country = check_country(row[1].strip())
            parse_quantity(row[2].strip())
            try:
                value = float(row[3])
            except ValueError:
                raise SeriesError(f"{path}:{lineno}: bad value {row[3]!r}") from None
            groups.setdefault((country, row[2].strip()), []).append((ts, value))

    out: dict[tuple[str, str], HourlySeries] = {}
    for (country, fullq), rows in groups.items():
        rows.sort(key=lambda r: r[0])
        start = rows[0][0]
        values = np.empty(len(rows))
        for i, (ts, value) in enumerate(rows):
            expected = noleap_hours_between(start, ts)
            if expected < i:
                raise SeriesError(
                    f"{path}: duplicate timestamp {ts.isoformat()} in "
                    f"({country}, {fullq})"
                )
            if expected > i:
                raise MissingValue(
                    f"{path}: gap before {ts.isoformat()} in ({country}, {fullq}); "
                    f"expected hour index {i}, found {expected}"
                )
            values[i] = value
        base, _ = parse_quantity(fullq)
        out[(country, fullq)] = HourlySeries(
            country=country, quantity=base, start=start, values=values
        )
    return out


def csv_chunks(series_map: dict[tuple[str, str], HourlySeries]) -> Iterator[str]:
    """Canonical CSV text for a series map: the header, then one chunk per series.

    A bundle's series share one timestamp column, formatted once per (start,
    length). No field needs quoting: names are checked, values are float reprs.
    """
    yield ",".join(HEADER) + "\n"
    stamps: dict = {}
    for country, fullq in sorted(series_map):
        ser = series_map[(country, fullq)]
        shape = (ser.start, len(ser))
        if shape not in stamps:
            stamps[shape] = np.datetime_as_string(noleap_stamps(*shape), unit="s").tolist()
        # A line is stamp + "Z,country,quantity," + repr(value), the shortest exact float text.
        sep = f"Z,{country},{fullq},"
        yield "\n".join(map(sep.join, zip(stamps[shape], map(repr, ser.values.tolist())))) + "\n"


def emit_csv(series_map: dict[tuple[str, str], HourlySeries]) -> str:
    """Canonical CSV text for a series map (inverse of ingest_file)."""
    return "".join(csv_chunks(series_map))


@dataclass(frozen=True)
class CountryBundle:
    """All hourly inputs of one country over one contiguous horizon."""

    country: str
    load: HourlySeries
    availability: dict = field(default_factory=dict)  # tech -> HourlySeries
    heat_demand: HeatDemandSet = None
    cops: CopSet = None
    inflow: HourlySeries | None = None

    def __post_init__(self):
        if self.heat_demand is None:
            object.__setattr__(self, "heat_demand", HeatDemandSet(self.country, {}))
        if self.cops is None:
            object.__setattr__(self, "cops", CopSet(self.country, {}))
        series = [self.load, *self.availability.values()]
        series += [*self.heat_demand.profiles.values(), *self.cops.profiles.values()]
        if self.inflow is not None:
            series.append(self.inflow)
        starts = {(s.start, len(s)) for s in series}
        if len(starts) > 1:
            raise AlignmentError(f"{self.country}: bundle series misaligned: {starts}")

    @property
    def hours(self) -> int:
        return len(self.load)

    def window(self, year: int, hours: int) -> "CountryBundle":
        return CountryBundle(
            country=self.country,
            load=window_july_june(self.load, year, hours),
            availability={
                tech: window_july_june(ser, year, hours)
                for tech, ser in self.availability.items()
            },
            heat_demand=self.heat_demand.window(year, hours)
            if not self.heat_demand.empty
            else HeatDemandSet(self.country, {}),
            cops=CopSet(
                self.country,
                {
                    key: window_july_june(ser, year, hours)
                    for key, ser in self.cops.profiles.items()
                },
            ),
            inflow=window_july_june(self.inflow, year, hours)
            if self.inflow is not None
            else None,
        )

    def to_series_map(self) -> dict[tuple[str, str], HourlySeries]:
        out = {(self.country, "electric_load_MW"): self.load}
        for tech, ser in self.availability.items():
            out[(self.country, f"availability_factor.{tech}")] = ser
        for (bt, st), ser in self.heat_demand.profiles.items():
            out[(self.country, f"heat_demand_MWth.{bt}.{st}")] = ser
        for (st, hpt), ser in self.cops.profiles.items():
            out[(self.country, f"cop.{st}.{hpt}")] = ser
        if self.inflow is not None:
            out[(self.country, "hydro_inflow_MWh")] = self.inflow
        return out


def assemble_bundles(series_map: dict[tuple[str, str], HourlySeries]) -> dict[str, CountryBundle]:
    """Group a flat series map into per-country bundles."""
    countries = sorted({country for country, _ in series_map})
    bundles = {}
    for country in countries:
        load = None
        availability = {}
        heat_profiles = {}
        cop_profiles = {}
        inflow = None
        for (c, fullq), ser in series_map.items():
            if c != country:
                continue
            base, subs = parse_quantity(fullq)
            if base == "electric_load_MW":
                load = ser
            elif base == "availability_factor":
                availability[subs[0]] = ser
            elif base == "heat_demand_MWth":
                heat_profiles[(subs[0], subs[1])] = ser
            elif base == "cop":
                cop_profiles[(subs[0], subs[1])] = ser
            elif base == "hydro_inflow_MWh":
                inflow = ser
        if load is None:
            raise SeriesError(f"{country}: no electric_load_MW series")
        bundles[country] = CountryBundle(
            country=country,
            load=load,
            availability=availability,
            heat_demand=HeatDemandSet(country, heat_profiles),
            cops=CopSet(country, cop_profiles),
            inflow=inflow,
        )
    return bundles


def bundles_to_series_map(bundles: dict[str, CountryBundle]) -> dict[tuple[str, str], HourlySeries]:
    out = {}
    for bundle in bundles.values():
        out.update(bundle.to_series_map())
    return out
