"""Dataset container: per-year hourly series maps plus static model data.

A :class:`Dataset` is what the scenario runner consumes. It can be built
from ingested CSV series plus the bundled static tables, or synthesized
at desk scale. In both cases each weather year maps to one flat
``{(country, quantity): HourlySeries}`` map, as :func:`~heatgrid.ingest.ingest_file`
and :func:`~heatgrid.synth.synth_profiles` return it; each cell cuts its
July-1-anchored window from that map (:func:`~heatgrid.scenarios.make_instance`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from .ingest import csv_chunks
from .series import SeriesError, _check_aligned
from .staticdata import Bounds, BoundsTable, NtcMatrix, StaticData, emit_static, load_static
from .synth import synth_profiles

INF = float("inf")


@dataclass(frozen=True)
class Dataset:
    """All inputs needed to instantiate scenario cells."""

    static: StaticData  # cost/technology parameters
    bounds: BoundsTable  # capacity bounds actually used by the model
    ntc: NtcMatrix
    bioenergy_cap_mwh_yr: dict  # country -> MWh per (full) year
    series: dict  # year -> {(country, quantity): HourlySeries}, windowed per cell
    provenance: str  # sha256 over canonical serializations
    synth_seed: int | None = None  # set when synthesized, recorded in manifests

    @property
    def years(self) -> list:
        return sorted(self.series)


def _provenance(series: dict, static: StaticData, bounds: BoundsTable, ntc: NtcMatrix, bio: dict) -> str:
    digest = hashlib.sha256()
    for year in sorted(series):
        digest.update(str(year).encode())
        for chunk in csv_chunks(series[year]):
            digest.update(chunk.encode())
    digest.update(emit_static(static.raw).encode())
    tables = {key: {f"{c}/{name}": [b.low, b.up] for (c, name), b in sorted(getattr(bounds, table).items())}
              for key, table in (("gen", "gen_mw"), ("sin", "storage_power_in_mw"),
                                 ("sout", "storage_power_out_mw"), ("sen", "storage_energy_mwh"))}
    tables["ntc"] = {f"{a}>{b}": mw for (a, b), mw in sorted(ntc.limits_mw.items())}
    tables["bio"] = dict(sorted(bio.items()))
    digest.update(json.dumps(tables, sort_keys=True).encode())
    return digest.hexdigest()


def synth_bounds(countries, peaks_mw: dict) -> tuple[BoundsTable, NtcMatrix, dict]:
    """Desk-scale capacity bounds, NTC, and bio caps scaled to load peaks.

    Mirrors the structure of the real bounds table: gas has a lower bound
    only, coal/lignite/nuclear/hydro are pinned, batteries and p2g2p are
    unconstrained, oil/other have upper bounds only.
    """
    gen, sin, sout, sen = {}, {}, {}, {}
    bio_caps = {}
    order = sorted(countries)
    for idx, c in enumerate(order):
        peak = peaks_mw[c]
        gen[(c, "ccgt")] = Bounds(0.15 * peak, INF)
        gen[(c, "oil")] = Bounds(0.0, 0.05 * peak)
        gen[(c, "other")] = Bounds(0.0, 0.08 * peak)
        gen[(c, "hard_coal")] = Bounds(0.10 * peak, 0.10 * peak) if idx % 2 == 0 else Bounds(0.0, 0.0)
        gen[(c, "lignite")] = Bounds(0.08 * peak, 0.08 * peak) if idx == 0 else Bounds(0.0, 0.0)
        gen[(c, "nuclear")] = Bounds(0.20 * peak, 0.20 * peak) if idx == 1 else Bounds(0.0, 0.0)
        gen[(c, "bioenergy")] = Bounds(0.06 * peak, 0.06 * peak)
        gen[(c, "run_of_river")] = Bounds(0.05 * peak, 0.05 * peak)
        gen[(c, "solar_pv")] = Bounds(0.10 * peak, INF)
        gen[(c, "wind_onshore")] = Bounds(0.10 * peak, INF)
        gen[(c, "wind_offshore")] = Bounds(0.02 * peak if idx % 2 == 0 else 0.0, INF)
        sin[(c, "li_ion")] = sout[(c, "li_ion")] = sen[(c, "li_ion")] = Bounds(0.0, INF)
        sin[(c, "p2g2p")] = sout[(c, "p2g2p")] = sen[(c, "p2g2p")] = Bounds(0.0, INF)
        phs_p = 0.04 * peak
        sin[(c, "phs_closed")] = sout[(c, "phs_closed")] = Bounds(phs_p, phs_p)
        sen[(c, "phs_closed")] = Bounds(6 * phs_p, 6 * phs_p)
        if idx == 2:
            sin[(c, "phs_open")] = Bounds(0.03 * peak, 0.03 * peak)
            sout[(c, "phs_open")] = Bounds(0.04 * peak, 0.04 * peak)
            sen[(c, "phs_open")] = Bounds(0.8 * peak, 0.8 * peak)
            sout[(c, "reservoir")] = Bounds(0.05 * peak, 0.05 * peak)
            sen[(c, "reservoir")] = Bounds(10.0 * peak, 10.0 * peak)
            sin[(c, "reservoir")] = Bounds(0.0, 0.0)
        else:
            sin[(c, "phs_open")] = sout[(c, "phs_open")] = sen[(c, "phs_open")] = Bounds(0.0, 0.0)
            sin[(c, "reservoir")] = sout[(c, "reservoir")] = sen[(c, "reservoir")] = Bounds(0.0, 0.0)
        bio_caps[c] = 0.06 * peak * 8760.0 * 0.45

    ntc = {}
    for a, b in zip(order, order[1:]):
        mw = 0.15 * min(peaks_mw[a], peaks_mw[b])
        ntc[(a, b)] = mw
        ntc[(b, a)] = mw
    return BoundsTable(gen, sin, sout, sen), NtcMatrix(ntc), bio_caps


def build_synth_dataset(seed: int, countries, years, hours: int, static: StaticData | None = None) -> Dataset:
    """Synthesize a Dataset for the given weather-year labels."""
    static = static if static is not None else load_static()
    years = sorted(int(y) for y in years)
    series = {year: synth_profiles(seed, countries, hours, start_year=year) for year in years}
    peaks = {
        c: max(float(series[y][(c, "electric_load_MW")].values.max()) for y in years)
        for c in countries
    }
    bounds, ntc, bio_caps = synth_bounds(countries, peaks)
    provenance = _provenance(series, static, bounds, ntc, bio_caps)
    return Dataset(
        static=static,
        bounds=bounds,
        ntc=ntc,
        bioenergy_cap_mwh_yr=bio_caps,
        series=series,
        provenance=provenance,
        synth_seed=seed,
    )


def build_ingested_dataset(series_map: dict, years, static: StaticData | None = None) -> Dataset:
    """Dataset from ingested series plus the bundled static tables.

    A country without a load series, or whose series differ in start or
    length, fails here. Windows are cut per cell, so a window the source
    does not cover surfaces as a per-cell CoverageError in the runner
    instead of failing the whole batch up front.
    """
    static = static if static is not None else load_static()
    countries = sorted({country for country, _ in series_map})
    for country in countries:
        load = series_map.get((country, "electric_load_MW"))
        if load is None:
            raise SeriesError(f"{country}: no electric_load_MW series")
        _check_aligned([load, *(ser for (c, _), ser in series_map.items() if c == country)])
    ntc = static.ntc.restrict(countries)
    bio = {c: static.bioenergy_cap_mwh_yr.get(c, 0.0) for c in countries}
    provenance = _provenance({"all-years": series_map}, static, static.bounds, ntc, bio)
    return Dataset(
        static=static,
        bounds=static.bounds,
        ntc=ntc,
        bioenergy_cap_mwh_yr=bio,
        series=dict.fromkeys(sorted(int(y) for y in years), series_map),
        provenance=provenance,
    )
