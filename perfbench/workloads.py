"""The benchmark's workloads: set-up, one timed round, and the round's checks.

Every workload calls heatgrid through its public entry points only. A
round is the unit the runner repeats; only the program stages inside it
are timed (``StageClock.stage``), so input preparation and checks are not.
An operation is a scenario cell, a full-year build, or an MPS round trip.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import checks
from heatgrid import cli as hg_cli
from heatgrid import dataset as hg_dataset
from heatgrid import heat as hg_heat
from heatgrid import model as hg_model
from heatgrid import mps as hg_mps
from heatgrid import scenarios as hg_scenarios
from heatgrid import solver as hg_solver
from heatgrid import synth as hg_synth

COUNTRIES = ("AT", "DE", "FR")
FIRST_YEAR = 2009
REFERENCE_SEED = 7
TRAJECTORY_TOL_MW = 1e-6
ANALYSIS_FILES = ("rldc.csv", "peaks.csv", "events.csv", "heat_daily.csv", "costs.json", "firm_delta.csv")


class StageClock:
    """Collects the intervals of one round that run program code."""

    def __init__(self):
        self.intervals: list[tuple[float, float]] = []

    @contextmanager
    def stage(self):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.intervals.append((start, time.perf_counter()))

    @property
    def seconds(self) -> float:
        return sum(end - start for start, end in self.intervals)


@dataclass
class Outcome:
    attempted: int
    failed: int
    problems: list


class MatrixWorkload:
    """A scenario matrix run with persistence, then ``heatgrid analyze --delta``."""

    def __init__(self, name: str, selector: str, years: int, hours: int, desk: bool):
        self.name = name
        self.years = tuple(FIRST_YEAR + i for i in range(years))
        self.hours = hours
        self.desk = desk
        self.specs = hg_scenarios.specs_for_selector(selector, self.years, hours)

    def setup(self, seed: int):
        return hg_dataset.build_synth_dataset(seed, COUNTRIES, self.years, self.hours)

    def round(self, dataset, workdir: Path, clock: StageClock):
        results_dir, analysis_dir = workdir / "results", workdir / "analysis"
        with clock.stage():
            results = hg_scenarios.run_matrix(dataset, self.specs, out_dir=results_dir)
            code = hg_cli.main(
                ["analyze", "--results", str(results_dir), "--out", str(analysis_dir), "--delta"]
            )
        return results, code, results_dir, analysis_dir

    def check(self, seed: int, dataset, state) -> Outcome:
        results, code, results_dir, analysis_dir = state
        problems = [] if code == 0 else [f"analyze exited with {code}"]
        problems += [f"analysis file {f} missing" for f in ANALYSIS_FILES if not (analysis_dir / f).is_file()]
        cell_dirs = sorted(p for p in results_dir.iterdir() if p.is_dir())
        if len(cell_dirs) != len(results):
            problems.append(f"{len(cell_dirs)} cell directories for {len(results)} cells")
        demand = {year: self.heat_demand(seed, year) for year in self.years}
        wind_lower = {
            key: b.low for key, b in dataset.bounds.gen_mw.items()
            if key[1] in ("wind_onshore", "wind_offshore")
        }
        objectives = {}
        for cell_dir in cell_dirs:
            cell = checks.read_cell(cell_dir)
            manifest = cell["manifest"]
            if manifest["status"] != "optimal":
                continue  # counted as failed below
            scenario = manifest["scenario"]
            key = (scenario["variant"], scenario["heat_share"], scenario["ep"] or 0.0, manifest["year"])
            objectives[key] = manifest["objective"]
            problems += checks.balance_problems(cell)
            problems += checks.heat_problems(cell, demand[manifest["year"]])
            problems += checks.variant_problems(cell, wind_lower)
        problems += checks.ordering_problems(objectives, desk=self.desk)
        failed = sum(not r.ok for r in results)
        return Outcome(attempted=len(results), failed=failed, problems=problems)

    def heat_demand(self, seed: int, year: int) -> dict:
        """Synthetic heat demand per (country, building type, sink), made again from the seed."""
        series = hg_synth.synth_profiles(seed, COUNTRIES, self.hours, start_year=year)
        out = {}
        for (c, quantity), s in series.items():
            if quantity.startswith("heat_demand_MWth."):
                _, bt, st = quantity.split(".")
                out[(c, bt, st)] = s.values
        return out


class FullYearBuild:
    """Build the full-year LP of one cell; extract and verify a feasible point made apart."""

    name = "fullyear_build"
    hours = 8760

    def __init__(self):
        self.spec = hg_scenarios.specs_for_selector("base", (FIRST_YEAR,), self.hours)[2]

    def setup(self, seed: int):
        return hg_dataset.build_synth_dataset(seed, COUNTRIES, (FIRST_YEAR,), self.hours)

    def round(self, dataset, workdir: Path, clock: StageClock):
        with clock.stage():
            instance = hg_scenarios.make_instance(dataset, self.spec, FIRST_YEAR)
            lp = hg_model.build_model(instance)
        x, cost = checks.feasible_point(instance, lp)
        point = hg_solver.Solution(
            status="optimal", objective=None, values=x, lp=lp, iterations=0,
            wall_time_s=0.0, backend="feasible_point", max_residual=float("nan"),
        )
        with clock.stage():
            solved = hg_model.extract_solved(instance, lp, point)
            report = hg_solver.verify(lp, point)
            trajectories = {
                c: hg_heat.validate_trajectory(
                    traj, instance.heat.fleet, instance.heat.targets_mw.get(c, {}),
                    instance.heat.cops[c], c,
                )
                for c, traj in solved.heat.items()
            }
        return instance, lp, x, cost, solved, report, trajectories

    def check(self, seed: int, dataset, state) -> Outcome:
        instance, lp, x, cost, solved, report, trajectories = state
        problems = checks.count_problems(instance, lp)
        problems += checks.point_problems(lp, x, cost, report)
        problems += checks.heat_supplied_problems(instance, solved)
        problems += [
            f"{c}: heat trajectory off by {rep.max_violation:.3e} MW"
            for c, rep in sorted(trajectories.items())
            if not rep.within(TRAJECTORY_TOL_MW)
        ]
        return Outcome(attempted=1, failed=0, problems=problems)


class MpsRoundTrip:
    """Export one cell's LP to MPS and import it back.

    The inputs are fixed (seed 7 whatever ``--seed`` says): the round trip
    loses columns on every input today, and a failure counted on every
    round must not depend on the seed.
    """

    name = "mps_export"
    hours = 168

    def __init__(self):
        self.spec = hg_scenarios.specs_for_selector("base", (FIRST_YEAR,), self.hours)[2]

    def setup(self, seed: int):
        return hg_dataset.build_synth_dataset(REFERENCE_SEED, COUNTRIES, (FIRST_YEAR,), self.hours)

    def round(self, dataset, workdir: Path, clock: StageClock):
        workdir.mkdir(parents=True, exist_ok=True)
        with clock.stage():
            instance = hg_scenarios.make_instance(dataset, self.spec, FIRST_YEAR)
            lp = hg_model.build_model(instance)
            path = hg_mps.export_mps(lp, workdir / "model.mps")
            back = hg_mps.import_mps(path)
        return lp, path, back

    def check(self, seed: int, dataset, state) -> Outcome:
        lp, path, back = state
        lossless, problems = checks.mps_problems(lp, back)
        problems += checks.sidecar_problems(path, lp)
        return Outcome(attempted=1, failed=0 if lossless else 1, problems=problems)


def all_workloads() -> dict:
    workloads = (
        MatrixWorkload("desk_base", "base", years=1, hours=336, desk=True),
        MatrixWorkload("variant_sweep", "all", years=6, hours=48, desk=False),
        FullYearBuild(),
        MpsRoundTrip(),
    )
    return {w.name: w for w in workloads}


def warm_up(workdir: Path) -> None:
    """Run every traced entry point once on a tiny matrix: imports and lazy set-up."""
    dataset = hg_dataset.build_synth_dataset(1, ("AT", "DE"), (FIRST_YEAR,), 24)
    specs = hg_scenarios.specs_for_selector("base", (FIRST_YEAR,), 24)
    hg_scenarios.run_matrix(dataset, specs, out_dir=workdir / "results")
    hg_cli.main(["analyze", "--results", str(workdir / "results"), "--out", str(workdir / "analysis")])
    lp = hg_model.build_model(hg_scenarios.make_instance(dataset, specs[2], FIRST_YEAR))
    hg_mps.import_mps(hg_mps.export_mps(lp, workdir / "model.mps"))
