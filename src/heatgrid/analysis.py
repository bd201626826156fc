"""Diagnostics: residual load, RLDCs, peaks, events, deltas, cost reports.

The series functions are pure and operate on plain arrays (or objects
exposing ``.values``). A cell's residual load, heat output and cost report
come from the reads of :class:`~heatgrid.model.CellView`, so they take a
solved or a saved cell alike. Firm-capacity deltas, pairing and the
emitters at the bottom read saved cells, as loaded back by
:func:`heatgrid.scenarios.load_results`, and the emitters write tidy,
plot-ready files. Each CSV is a declared
:class:`~heatgrid.scenarios.CellTable` written by the result tables' writer,
:func:`~heatgrid.scenarios.write_table`: values are float reprs, no field is
quoted, and a key that would need quoting raises ``ValueError``. Conventions:

* Residual load = electric load minus all variable-renewable generation;
  heat-pump electricity is excluded unless explicitly included.
* A *heat deviation event* is a maximal run of hours with heat demand
  strictly above its window mean; its magnitude is the cumulative excess.
  Hours exactly at the mean terminate an event (strictness makes the
  partition deterministic).
* A *residual-load event* is a maximal run of strictly positive residual
  load; its magnitude is the cumulative residual energy.
* Event magnitudes are normalized by the largest event of the same series
  (per country and year), so exactly one event per series carries 1.0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ids import DISPATCHABLE_TECHNOLOGIES, VARIABLE_RENEWABLES
from .model import COST_COMPONENTS, CellView
from .scenarios import CellTable, write_table
from .series import AlignmentError


class MismatchedScenario(ValueError):
    """Paired results differ in year or variant."""


# "Strictly above the mean" is evaluated with a small relative epsilon so
# that a constant series (whose float mean may differ from its elements in
# the last bit) produces no events.
MEAN_EPS_REL = 1e-9


def _values(x) -> np.ndarray:
    return np.asarray(getattr(x, "values", x), dtype=float)


def residual_load(load, vre_gen, hp_electricity=None, include_hp: bool = False) -> np.ndarray:
    """Load minus total VRE generation; optionally add heat-pump load."""
    out = _values(load).copy()
    for gen in vre_gen:
        arr = _values(gen)
        if len(arr) != len(out):
            raise AlignmentError(f"VRE series length {len(arr)} != load length {len(out)}")
        out -= arr
    if include_hp:
        if hp_electricity is None:
            raise AlignmentError("include_hp requires the heat-pump electricity series")
        arr = _values(hp_electricity)
        if len(arr) != len(out):
            raise AlignmentError("heat-pump series misaligned with load")
        out += arr
    return out


def rldc(series, top_n: int) -> np.ndarray:
    """First `top_n` values of the duration curve (sorted descending)."""
    arr = _values(series)
    if not 0 <= top_n <= len(arr):
        raise ValueError(f"top_n {top_n} not in [0, {len(arr)}]")
    return np.sort(arr)[::-1][:top_n].copy()


def daily_totals(series) -> np.ndarray:
    """Calendar-day sums (UTC) of an hourly series anchored at midnight.

    Series start on July 1 00:00, so day boundaries fall at multiples of
    24; a trailing partial day is dropped.
    """
    arr = _values(series)
    days = len(arr) // 24
    if days == 0:
        raise ValueError("need at least one full day")
    return arr[: days * 24].reshape(days, 24).sum(axis=1)


@dataclass(frozen=True)
class PeakRecord:
    country: str  # a country code, or 'total' for the cross-country sum
    quantity: str
    hour: int
    value: float


def peak_records(series_by_country: dict, quantity: str) -> list:
    """Per-country argmax records plus a `total` record on the summed series.

    Ties break toward the earliest hour. The `total` record is the argmax
    of the sum over countries, independent of the per-country peaks.
    """
    records = []
    total = None
    for country in sorted(series_by_country):
        arr = _values(series_by_country[country])
        if total is not None and len(arr) != len(total):
            raise AlignmentError(f"{country}: length {len(arr)} != {len(total)}")
        total = arr.copy() if total is None else total + arr
        hour = int(np.argmax(arr))
        records.append(PeakRecord(country, quantity, hour, float(arr[hour])))
    if total is not None:
        hour = int(np.argmax(total))
        records.append(PeakRecord("total", quantity, hour, float(total[hour])))
    return records


@dataclass(frozen=True)
class Event:
    start_hour: int
    end_hour: int  # exclusive
    magnitude_mwh: float
    normalized: float  # in (0, 1]; exactly one event per series is 1.0


def _runs(mask: np.ndarray):
    """(start, end) pairs of maximal True runs."""
    if not mask.any():
        return []
    diff = np.diff(mask.astype(np.int8))
    starts = list(np.flatnonzero(diff == 1) + 1)
    ends = list(np.flatnonzero(diff == -1) + 1)
    if mask[0]:
        starts.insert(0, 0)
    if mask[-1]:
        ends.append(len(mask))
    return list(zip(starts, ends))


def _normalize(events_raw: list) -> list:
    if not events_raw:
        return []
    top = max(mag for _, _, mag in events_raw)
    out = []
    for start, end, mag in events_raw:
        ratio = mag / top
        if ratio == 0.0:
            ratio = 5e-324  # magnitude > 0 by construction; keep (0, 1]
        out.append(Event(start, end, mag, ratio))
    return out


def deviation_threshold(arr: np.ndarray) -> float:
    """Absolute epsilon below which an excess over the mean is noise."""
    return MEAN_EPS_REL * max(1.0, float(np.abs(arr).max(initial=0.0)))


def _events(x: np.ndarray, floor: float) -> list:
    """Maximal runs of `x` strictly above `floor`, each with the sum of `x` over it, normalized."""
    return _normalize([(start, end, float(x[start:end].sum())) for start, end in _runs(x > floor)])


def deviation_events(heat) -> list:
    """Maximal runs of heat demand strictly above its window mean."""
    arr = _values(heat)
    if len(arr) == 0:
        raise ValueError("empty series")
    return _events(arr - arr.mean(), deviation_threshold(arr))


def residual_events(residual) -> list:
    """Maximal runs of strictly positive residual load."""
    arr = _values(residual)
    if len(arr) == 0:
        raise ValueError("empty series")
    return _events(arr, 0.0)


def firm_capacity_mw(capacities_mw: dict) -> dict:
    """Country-aggregated firm capacities: dispatchable gen + storage discharge.

    `capacities_mw` maps country -> {(kind, name): MW}, as in a saved cell
    and in ``SolvedSystem.capacities_mw``.
    """
    out: dict = {}
    for caps in capacities_mw.values():
        for (kind, name), mw in caps.items():
            if kind == "storage_discharge" or (
                kind == "generation" and name in DISPATCHABLE_TECHNOLOGIES
            ):
                out[name] = out.get(name, 0.0) + mw
    return out


def firm_capacity_delta(with_hp, without_hp) -> dict:
    """Capacity(with) - capacity(without), aggregated over countries.

    Both results must share year and variant. Returns per-name deltas in
    MW plus a `firm_total` over dispatchable generation and storage
    discharge power.
    """
    if with_hp.year != without_hp.year:
        raise MismatchedScenario(
            f"year {with_hp.year} vs {without_hp.year}"
        )
    if with_hp.variant != without_hp.variant:
        raise MismatchedScenario(f"variant {with_hp.variant} vs {without_hp.variant}")
    a = firm_capacity_mw(with_hp.capacities_mw)
    b = firm_capacity_mw(without_hp.capacities_mw)
    names = sorted(set(a) | set(b))
    deltas = {name: a.get(name, 0.0) - b.get(name, 0.0) for name in names}
    deltas["firm_total"] = sum(deltas[n] for n in names)
    return deltas


def heat_cost_eur_per_mwh(delta_cost_eur: float, heat_supplied_mwh: float):
    """Extra system cost per MWh of heat supplied; None when no heat."""
    if heat_supplied_mwh <= 0.0:
        return None
    return delta_cost_eur / heat_supplied_mwh


def cost_report(result, baseline=None) -> dict:
    """Objective decomposition, optionally with a no-heat-pump baseline.

    With a baseline, adds the cost delta and the implied heat price
    (delta cost per MWh of heat supplied; None when nothing was supplied).
    """
    costs = result.costs_eur
    report = {c if c == "heat_supplied_mwh" else f"{c}_eur": costs[c] for c in COST_COMPONENTS}
    if baseline is not None:
        base_costs = baseline.costs_eur
        delta = costs["total"] - base_costs["total"]
        report["baseline_total_eur"] = base_costs["total"]
        report["delta_cost_eur"] = delta
        report["heat_cost_eur_per_mwh"] = heat_cost_eur_per_mwh(
            delta, costs["heat_supplied_mwh"]
        )
    return report


# ---------------------------------------------------------------------------
# Emitters over persisted results (plot-ready CSV/JSON)
# ---------------------------------------------------------------------------

RLDC = CellTable("rldc.csv", ("scenario", "year", "with_hp_load", "rank"), ("residual_mw",), False)
PEAKS = CellTable("peaks.csv", ("scenario", "year", "quantity", "country", "hour"), ("value_mw",), False)
EVENTS = CellTable("events.csv", ("scenario", "year", "event_type", "country", "start_hour", "end_hour"),
                   ("magnitude_mwh", "normalized"), False)
HEAT_DAILY = CellTable("heat_daily.csv", ("scenario", "year", "country", "day"), ("heat_output_mwh_th",), False)
FIRM_DELTA = CellTable("firm_delta.csv", ("scenario", "baseline", "year", "name"), ("delta_mw",), False)


def result_residual_load(result, country: str, include_hp: bool = False) -> np.ndarray:
    vre = [result.generation_mw(country, tech) for tech in VARIABLE_RENEWABLES]
    return residual_load(
        result.load_mw(country), vre,
        hp_electricity=result.hp_load_mw(country), include_hp=include_hp,
    )


def system_residual_load(result, include_hp: bool = False) -> np.ndarray:
    total = None
    for c in result.countries():
        arr = result_residual_load(result, c, include_hp=include_hp)
        total = arr if total is None else total + arr
    return total


def emit_rldc_csv(results, path, top_n: int = 50) -> Path:
    """System RLDCs, with and without heat-pump load, per result."""
    rows = (
        ((r.name, r.year, int(include_hp), rank), (value,))
        for r in results
        for include_hp in (False, True)
        for rank, value in enumerate(
            rldc(system_residual_load(r, include_hp=include_hp), min(top_n, r.hours))
        )
    )
    return write_table(path, RLDC, rows)


_PEAK_QUANTITIES = (
    ("heat_demand", CellView.heat_output_mw),
    ("heat_pump_load", CellView.hp_load_mw),
    ("residual_load", result_residual_load),
)


def emit_peaks_csv(results, path) -> Path:
    rows = (
        ((r.name, r.year, quantity, rec.country, rec.hour), (rec.value,))
        for r in results
        for quantity, series_of in _PEAK_QUANTITIES
        for rec in peak_records({c: series_of(r, c) for c in r.countries()}, quantity)
    )
    return write_table(path, PEAKS, rows)


def _event_rows(results):
    for r in results:
        for c in r.countries():
            heat = r.heat_output_mw(c)
            by_type = {
                "heat_deviation": deviation_events(heat) if heat.any() else [],
                "positive_residual": residual_events(result_residual_load(r, c)),
            }
            for event_type, events in by_type.items():
                for ev in events:
                    key = (r.name, r.year, event_type, c, ev.start_hour, ev.end_hour)
                    yield key, (ev.magnitude_mwh, ev.normalized)


def emit_events_csv(results, path) -> Path:
    return write_table(path, EVENTS, _event_rows(results))


def emit_daily_heat_csv(results, path) -> Path:
    """Calendar-day heat-demand totals per country (plot-ready)."""
    heat = ((r, c, r.heat_output_mw(c)) for r in results for c in r.countries())
    rows = (
        ((r.name, r.year, c, day), (value,))
        for r, c, series in heat
        if series.any() and len(series) >= 24
        for day, value in enumerate(daily_totals(series))
    )
    return write_table(path, HEAT_DAILY, rows)


def pair_results(results) -> list:
    """(with_hp, without_hp) pairs sharing (variant, year)."""
    by_key = {}
    for result in results:
        by_key.setdefault((result.variant, result.year), []).append(result)
    pairs = []
    for key in sorted(by_key):
        group = by_key[key]
        base = [r for r in group if r.heat_share == 0.0]
        with_hp = [r for r in group if r.heat_share > 0.0]
        for w in sorted(with_hp, key=lambda r: r.name):
            if base:
                pairs.append((w, base[0]))
    return pairs


def emit_firm_delta_csv(results, path) -> Path:
    rows = (
        ((with_hp.name, without_hp.name, with_hp.year, name), (delta,))
        for with_hp, without_hp in pair_results(results)
        for name, delta in sorted(firm_capacity_delta(with_hp, without_hp).items())
    )
    return write_table(path, FIRM_DELTA, rows)


def emit_cost_report_json(results, path) -> Path:
    path = Path(path)
    pairs = {(w.name, w.year): b for w, b in pair_results(results)}
    out = []
    for result in results:
        baseline = pairs.get((result.name, result.year))
        report = cost_report(result, baseline=baseline)
        report["scenario"] = result.name
        report["year"] = result.year
        out.append(report)
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return path
