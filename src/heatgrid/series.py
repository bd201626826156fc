"""Hourly time-series types, validation, and July-June windowing.

A :class:`HourlySeries` is one country's series of one quantity; a
:class:`ProfileSet` keys one country's series of a quantity by its subkeys.

Conventions:

* Hour ``h`` is the interval ``[h, h+1)``; all powers are hourly averages,
  so MW and MWh/h are numerically interchangeable.
* Series live on one no-leap calendar: every year has 8760 hours, because
  Feb 29 is dropped at ingestion. :func:`noleap_hour` numbers its hours;
  consecutive hours differ by one, also across a Feb 29, so window
  arithmetic is the difference of two hour numbers.
* A "weather year" Y denotes the period July 1 of Y through June 30 of
  Y+1 so each heating season lies wholly inside one window.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from .ids import check_country, check_quantity, valid_subkeys


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


_EPOCH_ORDINAL = utc(1970).toordinal()


def noleap_hour(ts):
    """No-leap hour number of an aware `datetime`, or of each entry of a UTC ``datetime64`` array.

    The real hours since 1970-01-01T00Z, less 24 for each Feb 29 before that
    day. Every hour of a Feb 29 counts as the hour before Mar 1 00:00.
    """
    if isinstance(ts, datetime):
        ts = ts.astimezone(timezone.utc)
        real = 24 * (ts.toordinal() - _EPOCH_ORDINAL) + ts.hour
        year, month, day = ts.year, ts.month, ts.day
    else:
        real = ts.astype("M8[h]").astype(np.int64)
        days, months = ts.astype("M8[D]"), ts.astype("M8[M]")
        year, month = np.divmod(months.astype(np.int64), 12)
        year, month, day = year + 1970, month + 1, (days - months).astype(np.int64) + 1
    y = year - (month < 3)  # the last year whose Feb 29 lies before this day; 477 lie before 1970
    feb29 = (month == 2) & (day == 29)  # moved back to the hour before Mar 1 00:00
    return real - 24 * (y // 4 - y // 100 + y // 400 - 477) - feb29 * (real % 24 + 1)


def noleap_stamps(start: datetime, hours: int) -> np.ndarray:
    """UTC times (``datetime64[s]``) of no-leap hours ``0 .. hours-1`` from `start`.

    The inverse of :func:`noleap_hour` over a range: hour 0 is `start`
    itself, and every later hour on a Feb 29 is skipped.
    """
    first = np.datetime64(start.astimezone(timezone.utc).replace(tzinfo=None), "s")
    # Each skipped Feb 29 costs 24 real hours; the span holds hours // 8760 + 1 at most.
    span = hours + 24 * (hours // 8760 + 1)
    stamps = first + np.arange(span) * np.timedelta64(3600, "s")
    number = noleap_hour(stamps)
    return stamps[np.diff(number, prepend=number[0] - 1) > 0][:hours]


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


@dataclass(frozen=True)
class ModelWindow:
    """The model horizon: a July-anchored window of `hours` hours."""

    hours: int

    def __post_init__(self):
        if self.hours < 1:
            raise ValueError("window must contain at least one hour")


def window_july_june(series: HourlySeries, year: int, hours: int = 8760) -> HourlySeries:
    """The July-1-anchored window of weather year `year`.

    The returned series starts July 1 00:00 UTC of `year` and has exactly
    `hours` values. Raises CoverageError when the source does not span it.
    """
    window_start = utc(year, 7, 1)
    first = noleap_hour(window_start) - noleap_hour(series.start)
    if first < 0:
        raise CoverageError(
            f"window {year} starts {window_start.date()}, before series start "
            f"{series.start.date()}"
        )
    if first + hours > len(series):
        raise CoverageError(
            f"window {year} needs hours [{first}, {first + hours}) but series "
            f"has only {len(series)}"
        )
    return HourlySeries(
        series.country, series.quantity, window_start, series.values[first : first + hours].copy()
    )


@dataclass(frozen=True)
class ProfileSet:
    """One country's aligned hourly profiles of one quantity, keyed by its :data:`~heatgrid.ids.SUBKEYS`.

    An empty profile map is legal and marks a country with no heat-pump
    rollout (the Switzerland case).
    """

    country: str
    quantity: str
    profiles: dict = field(default_factory=dict)  # subkeys -> HourlySeries

    def __post_init__(self):
        check_country(self.country)
        for key, ser in self.profiles.items():
            if not valid_subkeys(self.quantity, key):
                raise ValueError(f"unknown {self.quantity} key {key}")
            if ser.quantity != self.quantity:
                raise ValueError(f"profile {key} has quantity {ser.quantity}")
            if ser.country != self.country:
                raise AlignmentError(f"profile {key} belongs to {ser.country}, not {self.country}")
        _check_aligned(self.profiles.values())


def _check_aligned(series) -> None:
    """Raise AlignmentError, naming the country, unless all `series` share start and length."""
    series = list(series)
    if not series:
        return
    start, n = series[0].start, len(series[0])
    for ser in series[1:]:
        if ser.start != start or len(ser) != n:
            raise AlignmentError(
                f"{ser.country}: {ser.quantity} series misaligned: ({ser.start}, {len(ser)}) vs ({start}, {n})"
            )
