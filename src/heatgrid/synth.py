"""Deterministic synthetic profiles for desk-scale runs.

The generator replaces the proprietary-scale hourly datasets with a toy
climate that keeps the qualitative structure the model cares about:

* heat demand is anti-correlated with a temperature proxy (cold -> high),
  with a seasonal cosine bottoming out in mid-January, a diurnal cycle,
  and smoothed weather noise so that even summer nights see some heating;
* COPs are positively correlated with the same temperature proxy and are
  lower for water than for space heating;
* PV availability follows daylight, wind is noisy with a winter uplift,
  run-of-river and inflows peak in spring.

Everything is driven by ``numpy.random.default_rng([seed, year, ...])``,
so identical (seed, countries, hours) calls return identical series maps.
No heat rollout is generated for Switzerland, mirroring the real dataset.
"""

from __future__ import annotations

import numpy as np

from .ids import BUILDING_TYPES, SINKS, check_country
from .series import HourlySeries, utc

# Relative system size per country position (index into the sorted list).
_SIZE_CYCLE = (1.0, 0.65, 0.45, 0.85, 0.55, 0.75, 0.35, 0.6, 0.9)
_BASE_LOAD_MW = 9000.0

_BT_SPLIT = {"single_family": 0.45, "multifamily": 0.30, "commercial": 0.25}
_HPT_COP_OFFSET = {"air": 0.0, "ground": 0.5, "water": 0.8}


def _smooth_noise(rng, hours: int, window: int = 12) -> np.ndarray:
    """Zero-mean unit-variance noise with ~`window`-hour correlation."""
    raw = rng.standard_normal(hours + window)
    kernel = np.exp(-np.arange(window) / (window / 3.0))
    kernel /= np.linalg.norm(kernel)
    out = np.convolve(raw, kernel, mode="full")[window : window + hours]
    return out


def _temperature(rng, hours: int, offset: float) -> np.ndarray:
    """Temperature proxy in deg C, July-1-anchored."""
    h = np.arange(hours)
    calendar_day = (h / 24.0 + 181.0) % 365.0  # 0 = Jan 1
    seasonal = 9.0 - 11.0 * np.cos(2 * np.pi * (calendar_day - 15.0) / 365.0)
    diurnal = 5.0 * np.sin(2 * np.pi * ((h % 24) - 9.0) / 24.0)
    weather = 5.0 * _smooth_noise(rng, hours, window=24)
    return seasonal + diurnal + weather + offset


def synth_profiles(
    seed: int, countries, hours: int, start_year: int = 2009
) -> dict[tuple[str, str], HourlySeries]:
    """Generate July-anchored hourly series for each country.

    Returns a flat series map keyed (country, quantity-string), the same
    shape :func:`heatgrid.ingest.ingest_file` produces, so synthetic and
    ingested data share every validator downstream.
    """
    if hours < 24:
        raise ValueError("need at least 24 hours")
    countries = [check_country(c) for c in countries]
    if len(set(countries)) < len(countries):  # a second copy would overwrite the first's series
        raise ValueError(f"country {max(countries, key=countries.count)} is listed more than once")
    start = utc(start_year, 7, 1)
    h = np.arange(hours)
    out: dict[tuple[str, str], HourlySeries] = {}

    for idx, country in enumerate(sorted(countries)):
        size = _SIZE_CYCLE[idx % len(_SIZE_CYCLE)]
        rng = np.random.default_rng([seed, start_year, idx])
        temp = _temperature(rng, hours, offset=1.5 * np.sin(idx))

        def series(quantity: str, values) -> HourlySeries:
            return HourlySeries(country=country, quantity=quantity, start=start, values=values)

        # Electric load: diurnal + mild seasonal + noise, strictly positive.
        base = _BASE_LOAD_MW * size
        winter = 0.5 - 0.5 * np.cos(2 * np.pi * ((h / 24.0 + 181.0) % 365.0 - 15.0) / 365.0)
        diurnal = 0.5 + 0.5 * np.sin(2 * np.pi * ((h % 24) - 8.0) / 24.0)
        load = base * (0.8 + 0.12 * winter + 0.18 * diurnal + 0.04 * _smooth_noise(rng, hours))
        out[(country, "electric_load_MW")] = series("electric_load_MW", np.maximum(load, 0.05 * base))

        # Availability factors.
        daylight = np.clip(np.sin(np.pi * ((h % 24) - 6.0) / 12.0), 0.0, None)
        pv = daylight * (0.55 + 0.35 * (1 - winter)) * (0.55 + 0.45 * rng.random(hours))
        out[(country, "availability_factor.solar_pv")] = series(
            "availability_factor", np.clip(pv, 0.0, 1.0)
        )
        wind = 0.32 + 0.10 * winter + 0.22 * _smooth_noise(rng, hours, window=18)
        out[(country, "availability_factor.wind_onshore")] = series(
            "availability_factor", np.clip(wind, 0.01, 1.0)
        )
        out[(country, "availability_factor.wind_offshore")] = series(
            "availability_factor", np.clip(0.25 + 0.85 * np.clip(wind, 0.01, 1.0), 0.01, 1.0)
        )
        spring = np.exp(-0.5 * (((h / 24.0 + 181.0) % 365.0 - 120.0) / 45.0) ** 2)
        ror = 0.35 + 0.3 * spring + 0.06 * _smooth_noise(rng, hours, window=48)
        out[(country, "availability_factor.run_of_river")] = series(
            "availability_factor", np.clip(ror, 0.02, 1.0)
        )

        # Hydro inflow, MWh per hour.
        inflow = size * 400.0 * (0.6 + 0.9 * spring + 0.15 * _smooth_noise(rng, hours, window=72))
        out[(country, "hydro_inflow_MWh")] = series("hydro_inflow_MWh", np.maximum(inflow, 0.0))

        # COPs: warmer -> better; water sinks run hotter -> lower COP.
        for st in SINKS:
            sink_penalty = 0.9 if st == "water" else 0.0
            for hpt, offset in _HPT_COP_OFFSET.items():
                damp = 0.35 if hpt != "air" else 1.0  # ground/water sources are steadier
                cop = 2.9 + offset - sink_penalty + 0.075 * damp * temp
                out[(country, f"cop.{st}.{hpt}")] = series("cop", np.clip(cop, 1.1, 6.5))

        if country == "CH":
            continue  # no heat-pump rollout there: empty heat demand set

        # Heat demand: heating-degree space demand plus flatter water demand.
        degree = np.maximum(20.0 - temp, 0.0)
        space_total = 0.11 * base * degree  # peak winter ~ 2x base load (th)
        morning = np.exp(-0.5 * (((h % 24) - 7.0) / 2.0) ** 2)
        evening = np.exp(-0.5 * (((h % 24) - 19.0) / 2.5) ** 2)
        water_total = 0.22 * base * (0.55 + 0.8 * (morning + evening) + 0.1 * winter)
        for bt in BUILDING_TYPES:
            share = _BT_SPLIT[bt]
            jitter = 1.0 + 0.05 * _smooth_noise(rng, hours, window=6)
            out[(country, f"heat_demand_MWth.{bt}.space")] = series(
                "heat_demand_MWth", np.maximum(share * space_total * jitter, 0.0)
            )
            out[(country, f"heat_demand_MWth.{bt}.water")] = series(
                "heat_demand_MWth", np.maximum(share * water_total * jitter, 0.0)
            )

    return out
