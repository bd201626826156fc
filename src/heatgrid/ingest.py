"""CSV ingestion, validation, and canonical re-emission.

Input schema (one file may carry several countries and quantities):

    timestamp,country,quantity,value

* ``timestamp``: ISO-8601 on the hour, e.g. ``2009-07-01T13:00:00Z``; an
  offset is converted to UTC and a naive stamp is read as UTC.
* ``country``: canonical two-letter code.
* ``quantity``: a base quantity, optionally extended with dot-separated
  subkeys that identify the member of a family (:data:`~heatgrid.ids.SUBKEYS`):

      electric_load_MW
      hydro_inflow_MWh
      availability_factor.<technology>        e.g. availability_factor.solar_pv
      heat_demand_MWth.<building_type>.<sink> e.g. heat_demand_MWth.single_family.space
      cop.<sink>.<heat_pump_type>             e.g. cop.space.air

* ``value``: decimal number in canonical units (MW, MW_th, MWh, or
  dimensionless).

Rows falling on Feb 29 are dropped so every series lives on the no-leap
calendar of :mod:`heatgrid.series`; the rest of a (country, quantity)
group must form a gapless hourly sequence without duplicates. Canonical
emission sorts groups lexicographically and formats values with ``repr``
so ingest -> emit round trips are byte-identical.
"""

from __future__ import annotations

import csv
from collections.abc import Iterator
from datetime import datetime, timezone
from itertools import compress, islice
from operator import itemgetter
from pathlib import Path

import numpy as np

from .ids import QUANTITIES, SUBKEYS, check_country, valid_subkeys
from .series import (
    HourlySeries,
    MissingValue,
    SeriesError,
    noleap_hour,
    noleap_stamps,
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
    if not valid_subkeys(base, subs):
        if base not in SUBKEYS:
            raise BadHeader(f"quantity {base} takes no subkeys, got {full!r}")
        names = ".".join(f"<{name}>" for name, _ in SUBKEYS[base])
        raise BadHeader(f"{base} needs {names}, got {full!r}")
    return base, subs


def _parse_timestamp(text: str) -> datetime:
    raw = text.strip()
    if raw.endswith("Z"):
        raw = raw[:-1] + "+00:00"
    try:
        ts = datetime.fromisoformat(raw)
    except ValueError as exc:
        raise SeriesError(f"bad timestamp {text!r}: {exc}") from None
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    ts = ts.astimezone(timezone.utc)
    if ts.minute or ts.second or ts.microsecond:
        raise SeriesError(f"timestamp {text!r} is not on the hour")
    return ts


_CHUNK_ROWS = 1 << 14  # bounds the rows held as Python lists at once
_FEB29 = np.iinfo(np.int64).min  # the hour number of a dropped Feb 29 row


def ingest_file(path) -> dict[tuple[str, str], HourlySeries]:
    """Parse one CSV file into {(country, full_quantity): HourlySeries}.

    Rows are read in chunks and handled as columns. Each distinct timestamp
    text is parsed once and each distinct (country, quantity) pair is
    checked once, and a failure names the first line that holds the text.
    A series is ordered by the :func:`noleap_hour` numbers of its rows, so a
    duplicate or a gap is a step other than 1 between them.
    """
    path = Path(path)
    hour_of: dict = {}  # timestamp text -> no-leap hour number, or _FEB29
    moment: dict = {}  # no-leap hour number -> UTC datetime
    series_of: dict = {}  # (country, quantity) text -> index of its key
    keys: dict = {}  # (country, full quantity) -> index, in order of first appearance

    def columns(rows: list, line: int):
        """Hour numbers, series indices and values of the rows off Feb 29; `line` numbers the first row."""
        widths = np.fromiter(map(len, rows), np.intp, len(rows))
        bad = np.flatnonzero((widths != 4) & (widths != 0))
        if bad.size:
            raise BadHeader(f"{path}:{line + bad[0]}: expected 4 fields, got {widths[bad[0]]}")
        lines = line + np.flatnonzero(widths)  # a blank line holds no row
        stamps, countries, quantities, texts = (list(map(itemgetter(i), filter(None, rows))) for i in range(4))
        for text in [text for text in dict.fromkeys(stamps) if text not in hour_of]:
            try:
                ts = _parse_timestamp(text)
            except SeriesError as exc:  # name the first line that holds the text
                raise SeriesError(f"{path}:{lines[stamps.index(text)]}: {exc}") from None
            hour_of[text] = _FEB29 if (ts.month, ts.day) == (2, 29) else noleap_hour(ts)
            moment[hour_of[text]] = ts
        hours = np.fromiter(map(hour_of.__getitem__, stamps), np.int64, len(stamps))
        keep = hours != _FEB29  # no-leap calendar
        countries, quantities, texts = (list(compress(col, keep)) for col in (countries, quantities, texts))
        hours, lines = hours[keep], lines[keep]
        pairs = list(zip(countries, quantities))
        for pair in [pair for pair in dict.fromkeys(pairs) if pair not in series_of]:
            key = (pair[0].strip(), pair[1].strip())
            try:
                check_country(key[0])
                parse_quantity(key[1])
            except ValueError as exc:  # name the first line that holds the pair
                raise SeriesError(f"{path}:{lines[pairs.index(pair)]}: {exc}") from None
            series_of[pair] = keys.setdefault(key, len(keys))
        series = np.fromiter(map(series_of.__getitem__, pairs), np.intp, len(pairs))
        try:
            return hours, series, np.fromiter(map(float, texts), float, len(texts))
        except ValueError:
            k = next(k for k, text in enumerate(texts) if not _is_float(text))
            raise SeriesError(f"{path}:{lines[k]}: bad value {texts[k]!r}") from None

    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise BadHeader(f"{path}: empty file")
        if tuple(header) != HEADER:
            raise BadHeader(f"{path}: header {tuple(header)} != {HEADER}")
        chunks, line = [], 2
        while rows := list(islice(reader, _CHUNK_ROWS)):
            chunks.append(columns(rows, line))
            line += len(rows)
    if not chunks:
        return {}
    hours, series, values = map(np.concatenate, zip(*chunks))

    out: dict[tuple[str, str], HourlySeries] = {}
    order = np.lexsort((hours, series))
    bounds = np.searchsorted(series[order], np.arange(len(keys) + 1))
    for (country, fullq), lo, hi in zip(keys, bounds, bounds[1:]):
        run = order[lo:hi]
        step = np.diff(hours[run])
        if (step != 1).any():
            k = int(np.argmax(step != 1))  # row k + 1 does not follow row k
            ts = moment[hours[run[k + 1]]].isoformat()
            if step[k] == 0:
                raise SeriesError(f"{path}: duplicate timestamp {ts} in ({country}, {fullq})")
            raise MissingValue(
                f"{path}: gap before {ts} in ({country}, {fullq}); "
                f"expected hour index {k + 1}, found {k + step[k]}"
            )
        out[(country, fullq)] = HourlySeries(country, parse_quantity(fullq)[0], moment[hours[run[0]]], values[run])
    return out


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def csv_chunks(series_map: dict[tuple[str, str], HourlySeries]) -> Iterator[str]:
    """Canonical CSV text for a series map: the header, then one chunk per series.

    Series of one (start, length) share one timestamp column, formatted once.
    No field needs quoting: names are checked, values are float reprs.
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
