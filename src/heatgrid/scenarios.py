"""Scenario matrix: base and robustness specs, batch runner, persistence.

The base matrix is exactly three runs: no heat pumps, 25% heat coverage
without thermal storage, and 25% with a two-hour tank. Each robustness
variant (gas_free, half_nuc, no_coal, no_ntc, wind_cap) pairs a no-heat
run with a 25%/two-hour run. Every spec executes once per weather year.

Results persist one directory per (scenario, year) cell containing
``capacities.csv``, ``dispatch.csv``, ``flows.csv``, ``heat.csv``,
``costs.csv`` and a ``manifest.json`` (spec, provenance hash, solver
stats, per-stage timings, residuals, an error cell's traceback), plus
``model.mps`` when MPS export is asked for.
Writes are atomic (temp dir, then rename), cells are independent, and a
failing cell is recorded without aborting the batch.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dataset import Dataset
from .heat import HeatConfig, HeatPumpFleet, size_fleet, validate_trajectory
from .lp import LinearProgram
from .model import HeatBlock, SolvedSystem, SystemInstance, build_model, extract_solved
from .mps import export_mps as write_mps
from .series import ModelWindow
from .solver import ResidualReport, Solution, solve, verify
from .staticdata import Bounds, NtcMatrix

VARIANTS = ("base", "gas_free", "half_nuc", "no_coal", "no_ntc", "wind_cap")

BASE_MATRIX = ((0.0, None), (0.25, 0.0), (0.25, 2.0))  # (heat share, ep hours)

MANIFEST_SCHEMA = "heatgrid-result-v1"


class UnknownVariant(ValueError):
    pass


class ScenarioError(ValueError):
    pass


@dataclass(frozen=True)
class ScenarioSpec:
    """One scenario: heat configuration plus a bounds/NTC variant."""

    name: str
    heat_share: float
    ep: float | None  # None when no heat pumps are rolled out
    variant: str
    weather_years: tuple
    window_hours: int

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise UnknownVariant(f"variant {self.variant!r} not in {VARIANTS}")
        key = (self.heat_share, self.ep)
        if self.variant == "base":
            if key not in BASE_MATRIX:
                raise ScenarioError(f"base matrix does not contain {key}")
        else:
            if key not in ((0.0, None), (0.25, 2.0)):
                raise ScenarioError(
                    f"robustness runs pair 0% with 25%/two-hour storage, got {key}"
                )
        if self.window_hours < 1:
            raise ScenarioError("window_hours must be >= 1")
        object.__setattr__(self, "weather_years", tuple(int(y) for y in self.weather_years))

    @property
    def has_heat(self) -> bool:
        return self.heat_share > 0.0


def _spec_name(variant: str, share: float, ep) -> str:
    if share == 0.0:
        return f"{variant}-hp00"
    return f"{variant}-hp25-ep{int(ep)}"


def base_specs(years, hours: int) -> list:
    return [
        ScenarioSpec(_spec_name("base", s, ep), s, ep, "base", tuple(years), hours)
        for s, ep in BASE_MATRIX
    ]


def robustness_specs(variant: str, years, hours: int) -> list:
    if variant not in VARIANTS or variant == "base":
        raise UnknownVariant(f"{variant!r} is not a robustness variant")
    return [
        ScenarioSpec(_spec_name(variant, s, ep), s, ep, variant, tuple(years), hours)
        for s, ep in ((0.0, None), (0.25, 2.0))
    ]


def specs_for_selector(selector: str, years, hours: int) -> list:
    """Expand a CLI selector (base | <variant> | all) into specs."""
    if selector == "base":
        return base_specs(years, hours)
    if selector == "all":
        out = base_specs(years, hours)
        for variant in VARIANTS[1:]:
            out.extend(robustness_specs(variant, years, hours))
        return out
    if selector in VARIANTS:
        return robustness_specs(selector, years, hours)
    raise UnknownVariant(f"unknown scenario selector {selector!r}")


# ---------------------------------------------------------------------------
# Variants
# ---------------------------------------------------------------------------


def apply_variant(instance: SystemInstance, spec: ScenarioSpec) -> SystemInstance:
    """Mutate bounds/NTC per variant, always starting from the base tables.

    Recomputing from the pristine base bounds makes the operation
    idempotent and lets it commute with window selection.
    """
    bounds = instance.base_bounds
    ntc = instance.base_ntc
    variant = spec.variant
    if variant == "base":
        return instance.replace_bounds(bounds, ntc)
    if variant == "gas_free":
        gen = {
            key: Bounds(0.0, b.up)
            for key, b in bounds.gen_mw.items()
            if key[1] == "ccgt"
        }
        return instance.replace_bounds(bounds.replace(gen=gen), ntc)
    if variant == "half_nuc":
        gen = {
            key: Bounds(0.5 * b.low, 0.5 * b.up if np.isfinite(b.up) else b.up)
            for key, b in bounds.gen_mw.items()
            if key[1] == "nuclear"
        }
        return instance.replace_bounds(bounds.replace(gen=gen), ntc)
    if variant == "no_coal":
        gen = {
            key: Bounds(0.0, 0.0)
            for key, b in bounds.gen_mw.items()
            if key[1] in ("hard_coal", "lignite")
        }
        return instance.replace_bounds(bounds.replace(gen=gen), ntc)
    if variant == "no_ntc":
        return instance.replace_bounds(bounds, NtcMatrix({}))
    if variant == "wind_cap":
        gen = {
            key: Bounds(b.low, 1.5 * b.low)
            for key, b in bounds.gen_mw.items()
            if key[1] in ("wind_onshore", "wind_offshore")
        }
        return instance.replace_bounds(bounds.replace(gen=gen), ntc)
    raise UnknownVariant(variant)


# ---------------------------------------------------------------------------
# Instance assembly and cell execution
# ---------------------------------------------------------------------------


def make_instance(dataset: Dataset, spec: ScenarioSpec, year: int) -> SystemInstance:
    """Window the dataset and assemble the (variant-applied) instance."""
    bundles = dataset.window(year, spec.window_hours)
    countries = tuple(sorted(bundles))
    loads = {c: bundles[c].load.values for c in countries}
    availability = {
        (c, tech): ser.values
        for c in countries
        for tech, ser in bundles[c].availability.items()
    }
    inflow = {
        c: bundles[c].inflow.values for c in countries if bundles[c].inflow is not None
    }

    heat_block = None
    if spec.has_heat:
        config = HeatConfig.uniform(spec.heat_share, spec.ep, hpt="air")
        fleet = HeatPumpFleet({})
        demand = {}
        cops = {}
        for c in countries:
            demand[c] = bundles[c].heat_demand
            cops[c] = bundles[c].cops
            fleet = fleet.merge(size_fleet(config, bundles[c].heat_demand, bundles[c].cops))
        heat_block = HeatBlock.build(config, demand, cops, fleet)

    instance = SystemInstance(
        name=f"{spec.name}__y{year}",
        countries=countries,
        window=ModelWindow(year, 0, spec.window_hours),
        loads_mw=loads,
        availability=availability,
        inflow_mwh=inflow,
        techs=dataset.static.technologies,
        storages=dataset.static.storages,
        bounds=dataset.bounds,
        ntc=dataset.ntc.restrict(countries),
        co2_price=dataset.static.co2_price_eur_per_t,
        bioenergy_cap_mwh_yr=dataset.bioenergy_cap_mwh_yr,
        heat=heat_block,
    )
    return apply_variant(instance, spec)


@dataclass
class ScenarioResult:
    """One solved (scenario, year) cell."""

    spec: ScenarioSpec
    year: int
    status: str
    objective: float | None
    solved: SolvedSystem | None
    residual_report: ResidualReport | None
    trajectory_reports: dict  # country -> TrajectoryReport
    solver_stats: dict
    provenance: str
    error: str | None = None
    traceback: str | None = None  # of the exception that made an error cell
    synth_seed: int | None = None
    lp: LinearProgram | None = None  # kept only for MPS export
    timings: dict = field(default_factory=dict)  # stage -> seconds, of the stages that ran

    @property
    def ok(self) -> bool:
        return self.status == "optimal" and self.error is None


def run_cell(
    dataset: Dataset, spec: ScenarioSpec, year: int, export_mps: bool = False
) -> ScenarioResult:
    """Build, solve, verify, and validate one matrix cell. Never raises.

    With `export_mps`, an optimal result keeps its LP in `lp`, and
    :func:`persist_result` writes it as ``model.mps``. `timings` holds the
    wall time of each stage that ran, in seconds.
    """
    timings: dict = {}
    try:
        with _stage(timings, "make_instance_s"):
            instance = make_instance(dataset, spec, year)
        with _stage(timings, "build_s"):
            lp = build_model(instance)
        with _stage(timings, "solve_s"):
            solution = solve(lp)
        if solution.status != "optimal":
            return ScenarioResult(
                spec=spec, year=year, status=solution.status, objective=None,
                solved=None, residual_report=None, trajectory_reports={},
                solver_stats=_stats(solution, lp), provenance=dataset.provenance,
                synth_seed=dataset.synth_seed, timings=timings,
            )
        with _stage(timings, "extract_s"):
            solved = extract_solved(instance, lp, solution)
        with _stage(timings, "verify_s"):
            report = verify(lp, solution)
        traj_reports = {}
        with _stage(timings, "validate_s"):
            if instance.heat is not None:
                for c, traj in solved.heat.items():
                    traj_reports[c] = validate_trajectory(
                        traj, instance.heat.fleet, instance.heat.targets_mw.get(c, {}),
                        instance.heat.cops[c], c,
                    )
        return ScenarioResult(
            spec=spec, year=year, status="optimal", objective=solution.objective,
            solved=solved, residual_report=report, trajectory_reports=traj_reports,
            solver_stats=_stats(solution, lp), provenance=dataset.provenance,
            synth_seed=dataset.synth_seed, lp=lp if export_mps else None, timings=timings,
        )
    except Exception as exc:  # cell isolation: record, don't abort the batch
        return ScenarioResult(
            spec=spec, year=year, status="error", objective=None, solved=None,
            residual_report=None, trajectory_reports={}, solver_stats={},
            provenance=dataset.provenance, error=f"{type(exc).__name__}: {exc}",
            traceback=traceback.format_exc(), synth_seed=dataset.synth_seed, timings=timings,
        )


@contextmanager
def _stage(timings: dict, name: str):
    """Record the wall time of the enclosed stage in `timings[name]`, also when it raises."""
    start = time.perf_counter()
    try:
        yield
    finally:
        timings[name] = time.perf_counter() - start


def _stats(solution: Solution, lp) -> dict:
    s = lp.stats()
    return {
        "backend": solution.backend,
        "status": solution.status,
        "iterations": solution.iterations,
        "wall_time_s": solution.wall_time_s,
        "highs_run_time_s": solution.highs_run_time_s,
        "max_residual": None if np.isnan(solution.max_residual) else solution.max_residual,
        "rows": s["rows"],
        "cols": s["cols"],
        "nnz": s["nnz"],
    }


def _run_cell_job(args):
    dataset, spec, year, export_mps, out_dir = args
    result = run_cell(dataset, spec, year, export_mps=export_mps)
    if out_dir is not None:
        persist_result(result, out_dir)
    result.lp = None  # already written; not held or sent back by the batch
    return result


def run_matrix(
    dataset: Dataset,
    specs,
    out_dir=None,
    export_mps: bool = False,
    jobs: int = 1,
) -> list:
    """Run every (spec, weather year) cell; persist when `out_dir` given.

    Cells are independent; failures are recorded per cell and the batch
    always completes. Results are returned in deterministic (spec, year)
    order regardless of worker scheduling. With `export_mps` and an
    `out_dir`, every optimal cell also gets ``model.mps`` and its name-map
    sidecar, written from the LP the cell was solved on.
    """
    out_dir = Path(out_dir) if out_dir is not None else None
    cells = [(spec, year) for spec in specs for year in spec.weather_years]
    tasks = [(dataset, spec, year, export_mps, out_dir) for spec, year in cells]
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_cell_job, tasks))
    else:
        results = [_run_cell_job(t) for t in tasks]
    return results


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def result_dirname(spec_name: str, year: int) -> str:
    return f"{spec_name}__y{year}"


def persist_result(result: ScenarioResult, out_dir: Path) -> Path:
    """Write one cell's directory atomically (write temp, then rename)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    final = out_dir / result_dirname(result.spec.name, result.year)
    tmp = out_dir / f".{result_dirname(result.spec.name, result.year)}.tmp-{os.getpid()}"
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir()
    try:
        _write_cell_files(result, tmp)
        if final.exists():
            shutil.rmtree(final)
        os.replace(tmp, final)
    finally:
        if tmp.exists():
            shutil.rmtree(tmp, ignore_errors=True)
    return final


def _csv_writer(path: Path):
    fh = path.open("w", newline="")
    return fh, csv.writer(fh, lineterminator="\n")


def _write_cell_files(result: ScenarioResult, cell_dir: Path) -> None:
    solved = result.solved

    fh, w = _csv_writer(cell_dir / "capacities.csv")
    with fh:
        w.writerow(["country", "kind", "name", "value"])
        if solved:
            for c in sorted(solved.capacities_mw):
                for (kind, name), mw in sorted(solved.capacities_mw[c].items()):
                    w.writerow([c, kind, name, repr(float(mw))])

    fh, w = _csv_writer(cell_dir / "dispatch.csv")
    with fh:
        w.writerow(["hour", "country", "kind", "name", "value_mw"])
        if solved:
            H = solved.instance.window.hours
            blocks = [
                ("generation", solved.generation_mw),
                ("charge", solved.charge_mw),
                ("discharge", solved.discharge_mw),
                ("soc_mwh", solved.soc_mwh),
                ("spill_mwh", solved.spill_mwh),
            ]
            for kind, block in blocks:
                for (c, name) in sorted(block):
                    arr = block[(c, name)]
                    for h in range(H):
                        w.writerow([h, c, kind, name, repr(float(arr[h]))])
            for c in sorted(solved.instance.countries):
                load = solved.instance.loads_mw[c]
                hp = solved.hp_load_mw(c)
                for h in range(H):
                    w.writerow([h, c, "load", "electric", repr(float(load[h]))])
                if solved.heat.get(c):
                    for h in range(H):
                        w.writerow([h, c, "load", "heat_pump", repr(float(hp[h]))])

    fh, w = _csv_writer(cell_dir / "flows.csv")
    with fh:
        w.writerow(["hour", "from", "to", "value_mw"])
        if solved:
            H = solved.instance.window.hours
            for (a, b) in sorted(solved.flows_mw):
                arr = solved.flows_mw[(a, b)]
                for h in range(H):
                    w.writerow([h, a, b, repr(float(arr[h]))])

    fh, w = _csv_writer(cell_dir / "heat.csv")
    with fh:
        w.writerow(
            [
                "hour", "country", "building_type", "sink", "heat_pump_type",
                "heat_output_mw_th", "heat_generated_mw_th",
                "storage_level_mwh_th", "electricity_mw_el",
            ]
        )
        if solved:
            for c in sorted(solved.heat):
                traj = solved.heat[c]
                for unit in traj.keys:
                    bt, st, hpt = unit
                    ho = traj.heat_output_mw[unit]
                    hi = traj.heat_generated_mw[unit]
                    hl = traj.storage_level_mwh[unit]
                    e = traj.electricity_mw[unit]
                    for h in range(len(ho)):
                        w.writerow(
                            [
                                h, c, bt, st, hpt,
                                repr(float(ho[h])), repr(float(hi[h])),
                                repr(float(hl[h])), repr(float(e[h])),
                            ]
                        )

    fh, w = _csv_writer(cell_dir / "costs.csv")
    with fh:
        w.writerow(["component", "value_eur"])
        if solved:
            for component in ("investment", "fixed_om", "variable", "storage_marginal", "total"):
                w.writerow([component, repr(float(solved.cost_breakdown[component]))])
            w.writerow(["objective", repr(float(result.objective))])
            w.writerow(["heat_supplied_mwh", repr(float(solved.heat_supplied_mwh))])

    manifest = {
        "schema": MANIFEST_SCHEMA,
        "scenario": {
            "name": result.spec.name,
            "heat_share": result.spec.heat_share,
            "ep": result.spec.ep,
            "variant": result.spec.variant,
            "window_hours": result.spec.window_hours,
        },
        "year": result.year,
        "status": result.status,
        "objective": result.objective,
        "error": result.error,
        "traceback": result.traceback,
        "provenance": result.provenance,
        "synth_seed": result.synth_seed,
        "solver": result.solver_stats,
        "timings": result.timings,
        "residuals": {
            family: {
                "max": fam.max_violation,
                "mean": fam.mean_violation,
                "rows": fam.rows,
            }
            for family, fam in (result.residual_report.families if result.residual_report else {}).items()
        },
        "heat_trajectory_max_violation": {
            c: rep.max_violation for c, rep in result.trajectory_reports.items()
        },
        "ntc_pairs": (
            sorted(f"{a}>{b}" for (a, b) in result.solved.instance.ntc.limits_mw)
            if result.solved
            else []
        ),
    }
    (cell_dir / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    if result.lp is not None:
        write_mps(result.lp, cell_dir / "model.mps")


# ---------------------------------------------------------------------------
# Read-back for analysis
# ---------------------------------------------------------------------------


@dataclass
class PersistedResult:
    """A result directory loaded back for analysis."""

    path: Path
    manifest: dict
    capacities_mw: dict  # country -> {(kind, name): value}
    dispatch_mw: dict  # (country, kind, name) -> np.ndarray
    flows_mw: dict  # (from, to) -> np.ndarray
    heat_mw: dict  # (country, (bt, st, hpt)) -> {field: np.ndarray}
    costs_eur: dict

    @property
    def name(self) -> str:
        return self.manifest["scenario"]["name"]

    @property
    def variant(self) -> str:
        return self.manifest["scenario"]["variant"]

    @property
    def heat_share(self) -> float:
        return self.manifest["scenario"]["heat_share"]

    @property
    def ep(self):
        return self.manifest["scenario"]["ep"]

    @property
    def year(self) -> int:
        return self.manifest["year"]

    @property
    def hours(self) -> int:
        return self.manifest["scenario"]["window_hours"]

    def countries(self) -> list:
        return sorted({c for (c, _, _) in self.dispatch_mw})

    def load_mw(self, country: str) -> np.ndarray:
        return self.dispatch_mw[(country, "load", "electric")]

    def hp_load_mw(self, country: str) -> np.ndarray:
        return self.dispatch_mw.get(
            (country, "load", "heat_pump"), np.zeros(self.hours)
        )

    def generation_mw(self, country: str, tech: str) -> np.ndarray:
        return self.dispatch_mw.get(
            (country, "generation", tech), np.zeros(self.hours)
        )


def load_result(cell_dir) -> PersistedResult:
    cell_dir = Path(cell_dir)
    manifest = json.loads((cell_dir / "manifest.json").read_text())
    hours = manifest["scenario"]["window_hours"]

    capacities: dict = {}
    with (cell_dir / "capacities.csv").open(newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for c, kind, name, value in reader:
            capacities.setdefault(c, {})[(kind, name)] = float(value)

    dispatch: dict = {}
    with (cell_dir / "dispatch.csv").open(newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for h, c, kind, name, value in reader:
            key = (c, kind, name)
            if key not in dispatch:
                dispatch[key] = np.zeros(hours)
            dispatch[key][int(h)] = float(value)

    flows: dict = {}
    with (cell_dir / "flows.csv").open(newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for h, a, b, value in reader:
            key = (a, b)
            if key not in flows:
                flows[key] = np.zeros(hours)
            flows[key][int(h)] = float(value)

    heat: dict = {}
    with (cell_dir / "heat.csv").open(newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for h, c, bt, st, hpt, ho, hi, hl, e in reader:
            key = (c, (bt, st, hpt))
            if key not in heat:
                heat[key] = {
                    "heat_output_mw_th": np.zeros(hours),
                    "heat_generated_mw_th": np.zeros(hours),
                    "storage_level_mwh_th": np.zeros(hours),
                    "electricity_mw_el": np.zeros(hours),
                }
            hh = int(h)
            heat[key]["heat_output_mw_th"][hh] = float(ho)
            heat[key]["heat_generated_mw_th"][hh] = float(hi)
            heat[key]["storage_level_mwh_th"][hh] = float(hl)
            heat[key]["electricity_mw_el"][hh] = float(e)

    costs: dict = {}
    with (cell_dir / "costs.csv").open(newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for component, value in reader:
            costs[component] = float(value)

    return PersistedResult(
        path=cell_dir,
        manifest=manifest,
        capacities_mw=capacities,
        dispatch_mw=dispatch,
        flows_mw=flows,
        heat_mw=heat,
        costs_eur=costs,
    )


def load_results(out_dir) -> list:
    out_dir = Path(out_dir)
    results = []
    for child in sorted(out_dir.iterdir()):
        if child.is_dir() and (child / "manifest.json").exists():
            results.append(load_result(child))
    return results
