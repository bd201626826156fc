"""Hourly time-series types, validation, and July-June windowing.

Conventions:

* Hour ``h`` is the interval ``[h, h+1)``; all powers are hourly averages,
  so MW and MWh/h are numerically interchangeable.
* Series live on a no-leap calendar: Feb 29 is dropped at ingestion, so a
  full weather year is always exactly 8760 hours and window arithmetic is
  pure index arithmetic.
* A "weather year" Y denotes the period July 1 of Y through June 30 of
  Y+1 so each heating season lies wholly inside one window.
"""

from __future__ import annotations

import calendar
import warnings
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone

import numpy as np

from .ids import BUILDING_TYPES, HEAT_PUMP_TYPES, SINKS, check_country, check_quantity


class SeriesError(ValueError):
    """Base class for time-series validation failures."""


class MissingValue(SeriesError):
    """A gap in the hourly sequence (gaps are ingestion errors, not imputation cases)."""


class NegativeValue(SeriesError):
    """Negative entry in a nonnegative quantity."""


class OutOfRange(SeriesError):
    """Value outside the quantity's admissible range (e.g. availability > 1)."""


class CoverageError(SeriesError):
    """Requested window not covered by the source series."""


class AlignmentError(SeriesError):
    """Series that must share start and length do not."""


def utc(year: int, month: int = 1, day: int = 1, hour: int = 0) -> datetime:
    return datetime(year, month, day, hour, tzinfo=timezone.utc)


def noleap_hours_between(start: datetime, end: datetime) -> int:
    """Hours from `start` to `end` on the no-leap calendar (Feb 29 removed)."""
    if end < start:
        raise ValueError("end before start")
    raw = int((end - start).total_seconds()) // 3600
    skipped = 0
    for year in range(start.year, end.year + 1):
        if not calendar.isleap(year):
            continue
        feb29 = utc(year, 2, 29)
        day_end = feb29 + timedelta(days=1)
        lo = max(start, feb29)
        hi = min(end, day_end)
        if hi > lo:
            skipped += int((hi - lo).total_seconds()) // 3600
    return raw - skipped


def is_leap_hour(ts: datetime) -> bool:
    return ts.month == 2 and ts.day == 29


def noleap_stamps(start: datetime, hours: int) -> np.ndarray:
    """UTC times (``datetime64[s]``) of no-leap hours ``0 .. hours-1`` from `start`.

    Hour 0 is `start` itself; every later hour on a Feb 29 is skipped.
    """
    first = np.datetime64(start.astimezone(timezone.utc).replace(tzinfo=None), "s")
    # Each skipped Feb 29 costs 24 real hours; the span holds hours // 8760 + 1 at most.
    span = hours + 24 * (hours // 8760 + 1)
    stamps = first + np.arange(span) * np.timedelta64(3600, "s")
    days = stamps.astype("M8[D]")
    months = days.astype("M8[M]")
    leap = (months.astype(np.int64) % 12 == 1) & ((days - months).astype(np.int64) == 28)
    leap[0] = False
    return stamps[~leap][:hours]


_NONNEGATIVE = {"electric_load_MW", "heat_demand_MWth", "hydro_inflow_MWh"}


@dataclass(frozen=True)
class HourlySeries:
    """A per-country, per-quantity hourly series with explicit calendar anchor.

    `start` is the UTC timestamp of hour 0; `values[h]` is the average over
    [start + h, start + h + 1) hours on the no-leap calendar.
    """

    country: str
    quantity: str
    start: datetime
    values: np.ndarray

    def __post_init__(self):
        check_country(self.country)
        check_quantity(self.quantity)
        if self.start.tzinfo is None:
            object.__setattr__(self, "start", self.start.replace(tzinfo=timezone.utc))
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or len(vals) < 1:
            raise SeriesError("values must be a nonempty 1-d array")
        if np.isnan(vals).any():
            raise MissingValue(f"{self.quantity} series for {self.country} contains NaN")
        if self.quantity in _NONNEGATIVE and (vals < 0).any():
            h = int(np.argmax(vals < 0))
            raise NegativeValue(
                f"{self.quantity} for {self.country} negative at hour {h}: {vals[h]}"
            )
        if self.quantity == "availability_factor":
            if (vals < 0).any() or (vals > 1).any():
                h = int(np.argmax((vals < 0) | (vals > 1)))
                raise OutOfRange(
                    f"availability_factor for {self.country} out of [0,1] "
                    f"at hour {h}: {vals[h]}"
                )
        if self.quantity == "cop":
            if (vals <= 0).any():
                h = int(np.argmax(vals <= 0))
                raise OutOfRange(f"cop for {self.country} must be > 0; hour {h}: {vals[h]}")
            if (vals <= 1.0).any():
                # Legal (resistive-heating regime) but worth flagging.
                h = int(np.argmax(vals <= 1.0))
                warnings.warn(
                    f"cop for {self.country} dips to {vals[h]} (<= 1) at hour {h}",
                    UserWarning,
                    stacklevel=2,
                )
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)

    def hour_index(self, ts: datetime) -> int:
        return noleap_hours_between(self.start, ts)

    def slice(self, first: int, count: int) -> "HourlySeries":
        if first < 0 or first + count > len(self.values):
            raise CoverageError(
                f"slice [{first}, {first + count}) outside series of length {len(self)}"
            )
        return HourlySeries(
            country=self.country,
            quantity=self.quantity,
            start=add_noleap_hours(self.start, first),
            values=self.values[first : first + count].copy(),
        )


def add_noleap_hours(start: datetime, hours: int) -> datetime:
    """Advance a timestamp by `hours` on the no-leap calendar."""
    ts = start + timedelta(hours=hours)
    # Crossing a Feb 29 consumes real hours that do not exist on the
    # no-leap calendar; top the timestamp up until the index matches.
    while True:
        if is_leap_hour(ts):
            ts = utc(ts.year, 3, 1)
            continue
        deficit = hours - noleap_hours_between(start, ts)
        if deficit == 0:
            return ts
        ts += timedelta(hours=deficit)


@dataclass(frozen=True)
class ModelWindow:
    """A July-anchored model horizon inside the source calendar."""

    label: int  # weather-year label, e.g. 2009 = July 2009 .. June 2010
    first_hour: int  # index into the source series
    hours: int

    def __post_init__(self):
        if self.hours < 1:
            raise ValueError("window must contain at least one hour")


def window_july_june(series: HourlySeries, year: int, hours: int = 8760) -> HourlySeries:
    """Slice the July-1-anchored window of weather year `year`.

    The returned series starts July 1 00:00 UTC of `year` and has exactly
    `hours` values. Raises CoverageError when the source does not span it.
    """
    window_start = utc(year, 7, 1)
    if window_start < series.start:
        raise CoverageError(
            f"window {year} starts {window_start.date()}, before series start "
            f"{series.start.date()}"
        )
    first = series.hour_index(window_start)
    if first + hours > len(series):
        raise CoverageError(
            f"window {year} needs hours [{first}, {first + hours}) but series "
            f"has only {len(series)}"
        )
    return series.slice(first, hours)


@dataclass(frozen=True)
class HeatDemandSet:
    """Heat demand profiles per (building type, sink), MW_th.

    An empty profile map is legal and marks a country with no heat-pump
    rollout (the Switzerland case).
    """

    country: str
    profiles: dict = field(default_factory=dict)  # (bt, st) -> HourlySeries

    def __post_init__(self):
        check_country(self.country)
        for (bt, st), ser in self.profiles.items():
            if bt not in BUILDING_TYPES or st not in SINKS:
                raise ValueError(f"unknown heat demand key ({bt}, {st})")
            if ser.quantity != "heat_demand_MWth":
                raise ValueError(f"profile ({bt}, {st}) has quantity {ser.quantity}")
            if ser.country != self.country:
                raise AlignmentError(
                    f"profile ({bt}, {st}) belongs to {ser.country}, not {self.country}"
                )
        _check_aligned(self.profiles.values())

    def __len__(self) -> int:
        for ser in self.profiles.values():
            return len(ser)
        return 0

    @property
    def empty(self) -> bool:
        return not self.profiles

    def window(self, year: int, hours: int) -> "HeatDemandSet":
        return HeatDemandSet(
            country=self.country,
            profiles={
                key: window_july_june(ser, year, hours)
                for key, ser in self.profiles.items()
            },
        )


@dataclass(frozen=True)
class CopSet:
    """Hourly COP profiles per (sink, heat-pump type), dimensionless."""

    country: str
    profiles: dict = field(default_factory=dict)  # (st, hpt) -> HourlySeries

    def __post_init__(self):
        check_country(self.country)
        for (st, hpt), ser in self.profiles.items():
            if st not in SINKS or hpt not in HEAT_PUMP_TYPES:
                raise ValueError(f"unknown COP key ({st}, {hpt})")
            if ser.quantity != "cop":
                raise ValueError(f"profile ({st}, {hpt}) has quantity {ser.quantity}")
            if ser.country != self.country:
                raise AlignmentError(
                    f"profile ({st}, {hpt}) belongs to {ser.country}, not {self.country}"
                )
        _check_aligned(self.profiles.values())

    def window(self, year: int, hours: int) -> "CopSet":
        return CopSet(
            country=self.country,
            profiles={
                key: window_july_june(ser, year, hours)
                for key, ser in self.profiles.items()
            },
        )

    def check_aligned_with(self, demand: HeatDemandSet) -> None:
        series = list(self.profiles.values()) + list(demand.profiles.values())
        _check_aligned(series)


def _check_aligned(series) -> None:
    series = list(series)
    if not series:
        return
    start, n = series[0].start, len(series[0])
    for ser in series[1:]:
        if ser.start != start or len(ser) != n:
            raise AlignmentError(
                f"series misaligned: ({ser.start}, {len(ser)}) vs ({start}, {n})"
            )
