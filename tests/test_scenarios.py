"""Scenario specs, variants, and the matrix runner."""

import copy
import json
import math

import numpy as np
import pytest

from heatgrid import scenarios
from heatgrid.dataset import build_synth_dataset
from heatgrid.scenarios import (
    VARIANTS,
    ScenarioError,
    ScenarioSpec,
    UnknownVariant,
    load_result,
    load_results,
    make_instance,
    manifest_equal,
    persist_result,
    run_cell,
    run_matrix,
    specs_for_selector,
    variant_tables,
)
from heatgrid.series import window_july_june
from heatgrid.staticdata import Bounds, load_static

YEARS = [2009, 2010]
HOURS = 48


@pytest.fixture(scope="module")
def dataset():
    return build_synth_dataset(21, ["AT", "DE", "FR"], YEARS, HOURS)


def test_base_matrix_is_exactly_three_runs():
    specs = specs_for_selector("base", YEARS, HOURS)
    assert [(s.heat_share, s.ep) for s in specs] == [(0.0, None), (0.25, 0.0), (0.25, 2.0)]
    with pytest.raises(ScenarioError):
        ScenarioSpec("bad", 0.5, 2.0, "base", YEARS, HOURS)


def test_robustness_runs_pair_zero_with_two_hour_tank():
    specs = specs_for_selector("no_ntc", YEARS, HOURS)
    assert [(s.heat_share, s.ep) for s in specs] == [(0.0, None), (0.25, 2.0)]
    with pytest.raises(ScenarioError):
        ScenarioSpec("bad", 0.25, 0.0, "no_ntc", YEARS, HOURS)
    with pytest.raises(UnknownVariant):
        ScenarioSpec("bad", 0.0, None, "banana", YEARS, HOURS)


def test_selector_expansion():
    assert len(specs_for_selector("base", YEARS, HOURS)) == 3
    assert len(specs_for_selector("gas_free", YEARS, HOURS)) == 2
    assert len(specs_for_selector("all", YEARS, HOURS)) == 3 + 5 * 2
    with pytest.raises(UnknownVariant):
        specs_for_selector("nope", YEARS, HOURS)


def test_selector_all_is_the_scenario_matrix_in_order():
    specs = specs_for_selector("all", YEARS, HOURS)
    assert [(s.name, s.variant, s.heat_share, s.ep) for s in specs] == [
        ("base-hp00", "base", 0.0, None),
        ("base-hp25-ep0", "base", 0.25, 0.0),
        ("base-hp25-ep2", "base", 0.25, 2.0),
        ("gas_free-hp00", "gas_free", 0.0, None),
        ("gas_free-hp25-ep2", "gas_free", 0.25, 2.0),
        ("half_nuc-hp00", "half_nuc", 0.0, None),
        ("half_nuc-hp25-ep2", "half_nuc", 0.25, 2.0),
        ("no_coal-hp00", "no_coal", 0.0, None),
        ("no_coal-hp25-ep2", "no_coal", 0.25, 2.0),
        ("no_ntc-hp00", "no_ntc", 0.0, None),
        ("no_ntc-hp25-ep2", "no_ntc", 0.25, 2.0),
        ("wind_cap-hp00", "wind_cap", 0.0, None),
        ("wind_cap-hp25-ep2", "wind_cap", 0.25, 2.0),
    ]
    assert {(s.weather_years, s.window_hours) for s in specs} == {(tuple(YEARS), HOURS)}


class TestApplyVariant:
    def test_half_nuc_on_published_bounds(self):
        # France nuclear pinned at 61.8 GW halves to 30.9 GW.
        static = load_static()
        bounds, _ = variant_tables(static.bounds, static.ntc, "half_nuc")
        assert bounds.gen("FR", "nuclear") == Bounds(30900.0, 30900.0)
        assert bounds.gen("NL", "nuclear") == Bounds(250.0, 250.0)

    def test_wind_cap_on_published_bounds(self):
        static = load_static()
        bounds, _ = variant_tables(static.bounds, static.ntc, "wind_cap")
        assert bounds.gen("DE", "wind_onshore") == Bounds(64000.0, 96000.0)  # 64 GW -> 1.5x
        assert bounds.gen("BE", "wind_offshore") == Bounds(2300.0, 3450.0)

    def test_gas_free_drops_lower_bound_only(self, dataset):
        before = dataset.bounds.gen("DE", "ccgt")
        after = variant_tables(dataset.bounds, dataset.ntc, "gas_free")[0].gen("DE", "ccgt")
        assert before.low > 0.0
        assert after.low == 0.0
        assert after.up == before.up

    def test_no_coal_removes_both_fuels(self, dataset):
        bounds, _ = variant_tables(dataset.bounds, dataset.ntc, "no_coal")
        for c in sorted({c for c, _ in dataset.bounds.gen_mw}):
            assert bounds.gen(c, "hard_coal") == Bounds(0.0, 0.0)
            assert bounds.gen(c, "lignite") == Bounds(0.0, 0.0)

    def test_no_ntc_empties_the_matrix(self, dataset):
        bounds, ntc = variant_tables(dataset.bounds, dataset.ntc, "no_ntc")
        assert dataset.ntc.limits_mw
        assert not ntc.limits_mw
        assert bounds == dataset.bounds

    def test_instance_carries_the_variant_tables_at_any_window(self, dataset):
        # A variant is applied to the dataset's base tables only, so the
        # instance's tables are the same at every window length, and the
        # dataset's own tables are left as they were.
        gen_before, ntc_before = dict(dataset.bounds.gen_mw), dict(dataset.ntc.limits_mw)
        for hours in (24, HOURS):
            for variant in VARIANTS:
                inst = make_instance(dataset, ScenarioSpec("v", 0.0, None, variant, YEARS, hours), 2009)
                bounds, ntc = variant_tables(dataset.bounds, dataset.ntc.restrict(inst.countries), variant)
                assert inst.bounds == bounds
                assert inst.ntc == ntc
        assert dataset.bounds.gen_mw == gen_before and dataset.ntc.limits_mw == ntc_before


class TestRunMatrix:
    def test_cardinality_three_specs_times_two_years(self, dataset, tmp_path):
        results = run_matrix(dataset, specs_for_selector("base", YEARS, HOURS), out_dir=tmp_path / "out")
        assert len(results) == 6
        assert all(r.ok for r in results)
        dirs = sorted(p.name for p in (tmp_path / "out").iterdir())
        assert len(dirs) == 6
        assert "base-hp00__y2009" in dirs

    def test_rerun_is_deterministic(self, dataset):
        specs = specs_for_selector("base", [2009], HOURS)
        a = run_matrix(dataset, specs)
        b = run_matrix(dataset, specs)
        assert [r.objective for r in a] == [r.objective for r in b]

    def test_infeasible_cell_is_isolated(self, dataset):
        # A window longer than the dataset breaks one cell at build time.
        good = ScenarioSpec("base-hp00", 0.0, None, "base", [2009], HOURS)
        bad = ScenarioSpec("base-hp00-long", 0.0, None, "base", [2009], HOURS * 10)
        results = run_matrix(dataset, [good, bad])
        assert results[0].ok
        assert not results[1].ok
        assert results[1].status == "error"
        assert "CoverageError" in results[1].error

    def test_error_cell_keeps_its_traceback(self, dataset, tmp_path, monkeypatch):
        import heatgrid.scenarios as scenarios

        def build_model_that_breaks(instance):
            raise RuntimeError("assembly failed")

        monkeypatch.setattr(scenarios, "build_model", build_model_that_breaks)
        spec = ScenarioSpec("base-hp00", 0.0, None, "base", [2009], HOURS)
        (result,) = run_matrix(dataset, [spec], out_dir=tmp_path)
        assert result.status == "error" and result.error == "RuntimeError: assembly failed"
        cell = tmp_path / "base-hp00__y2009"
        manifest = json.loads((cell / "manifest.json").read_text())
        assert "build_model_that_breaks" in manifest["traceback"]
        assert manifest["traceback"] == result.traceback
        assert "run_cell" in manifest["traceback"]
        assert manifest["solver"] == {} and manifest["residuals"] == {}  # it failed before any solve
        header = "country,kind,name,value\n"
        assert (cell / "capacities.csv").read_text() == header

    def test_optimal_cell_has_no_traceback(self, dataset, tmp_path):
        spec = ScenarioSpec("base-hp00", 0.0, None, "base", [2009], HOURS)
        (result,) = run_matrix(dataset, [spec], out_dir=tmp_path)
        manifest = json.loads((tmp_path / "base-hp00__y2009" / "manifest.json").read_text())
        assert result.ok and result.traceback is None and manifest["traceback"] is None

    def test_feasible_set_ordering_per_year(self, dataset):
        results = run_matrix(dataset, specs_for_selector("base", YEARS, HOURS))
        objs = {(r.spec.name, r.year): r.objective for r in results}
        for year in YEARS:
            hp0 = objs[("base-hp00", year)]
            ep0 = objs[("base-hp25-ep0", year)]
            ep2 = objs[("base-hp25-ep2", year)]
            assert hp0 <= ep2 + 1e-6 * abs(ep2)
            assert ep2 <= ep0 + 1e-6 * abs(ep0)

    def test_parallel_jobs_match_serial(self, dataset):
        specs = specs_for_selector("base", [2009], HOURS)
        serial = run_matrix(dataset, specs, jobs=1)
        parallel = run_matrix(dataset, specs, jobs=2)
        assert [r.objective for r in serial] == [r.objective for r in parallel]

    def test_export_mps_writes_optimal_cells_only(self, dataset, tmp_path):
        good = ScenarioSpec("base-hp00", 0.0, None, "base", [2009], HOURS)
        bad = ScenarioSpec("base-hp00-long", 0.0, None, "base", [2009], HOURS * 10)
        serial = run_matrix(dataset, [good, bad], out_dir=tmp_path / "s", export_mps=True)
        parallel = run_matrix(dataset, [good, bad], out_dir=tmp_path / "p", export_mps=True, jobs=2)
        assert all(r.lp is None for r in serial + parallel)  # LPs are not held after export
        for out in (tmp_path / "s", tmp_path / "p"):
            assert (out / "base-hp00__y2009" / "model.mps").exists()
            assert (out / "base-hp00-long__y2009" / "manifest.json").exists()
            assert not (out / "base-hp00-long__y2009" / "model.mps").exists()
        name = "base-hp00__y2009/model.mps"
        assert (tmp_path / "s" / name).read_bytes() == (tmp_path / "p" / name).read_bytes()


class TestPersistence:
    def test_round_trip_through_disk(self, dataset, tmp_path):
        spec = specs_for_selector("base", [2009], HOURS)[2]
        result = run_cell(dataset, spec, 2009)
        assert result.ok
        cell_dir = persist_result(result, tmp_path)
        loaded = load_result(cell_dir)
        assert loaded.name == spec.name
        assert loaded.year == 2009
        assert loaded.costs_eur["objective"] == pytest.approx(result.objective, rel=1e-12)
        # Dispatch arrays cover load, generation, and heat-pump load.
        assert loaded.load_mw("DE").shape == (HOURS,)
        assert loaded.hp_load_mw("DE").sum() > 0.0
        got = loaded.capacities_mw["DE"][("generation", "ccgt")]
        want = result.solved.capacities_mw["DE"][("generation", "ccgt")]
        assert got == pytest.approx(want, rel=1e-12)

    def test_manifest_carries_provenance_and_residuals(self, dataset, tmp_path):
        spec = specs_for_selector("base", [2009], HOURS)[0]
        result = run_cell(dataset, spec, 2009)
        cell_dir = persist_result(result, tmp_path)
        loaded = load_result(cell_dir)
        assert loaded.manifest["provenance"] == dataset.provenance
        assert loaded.manifest["solver"]["status"] == "optimal"
        assert loaded.manifest["residuals"]["balance"]["max"] <= 1e-6
        results = load_results(tmp_path)
        assert len(results) == 1

    def test_an_optimal_cell_is_verified_once_inside_solve(self, dataset, monkeypatch):
        import heatgrid.solver as solver

        verify, reports = solver.verify, []

        def recording_verify(lp, x):
            reports.append(verify(lp, x))
            return reports[-1]

        monkeypatch.setattr(solver, "verify", recording_verify)
        result = run_cell(dataset, specs_for_selector("base", [2009], HOURS)[2], 2009)
        assert result.ok
        assert len(reports) == 1 and result.residual_report is reports[0]

    def test_manifest_carries_stage_timings(self, dataset, tmp_path, monkeypatch):
        import heatgrid.scenarios as scenarios

        stages = ["make_instance_s", "build_s", "solve_s", "extract_s", "validate_s"]  # solve_s verifies
        result = run_cell(dataset, specs_for_selector("base", [2009], HOURS)[2], 2009)
        manifest = json.loads((persist_result(result, tmp_path / "ok") / "manifest.json").read_text())
        assert list(manifest["timings"]) == sorted(stages)
        assert manifest["timings"] == result.timings
        assert all(seconds >= 0.0 for seconds in result.timings.values())
        assert result.timings["solve_s"] >= manifest["solver"]["wall_time_s"]  # the stage holds the solve
        # HiGHS' own time is part of the solve.
        assert 0.0 < manifest["solver"]["highs_run_time_s"] <= manifest["solver"]["wall_time_s"]

        # An error cell keeps the times of the stages that ran, the failing one included.
        def solve_that_breaks(lp):
            raise RuntimeError("solver gone")

        monkeypatch.setattr(scenarios, "solve", solve_that_breaks)
        broken = run_cell(dataset, specs_for_selector("base", [2009], HOURS)[2], 2009)
        assert broken.status == "error"
        assert list(broken.timings) == ["make_instance_s", "build_s", "solve_s"]


class TestCostDecomposition:
    def test_breakdown_sums_to_objective(self, dataset):
        # Additivity oracle: investment + fixed O&M + variable + storage
        # marginal recomputed from physical quantities reproduces the LP
        # objective.
        for spec in specs_for_selector("base", [2009], HOURS):
            result = run_cell(dataset, spec, 2009)
            assert result.ok
            costs = result.solved.costs_eur
            total = sum(costs[k] for k in ("investment", "fixed_om", "variable", "storage_marginal"))
            assert total == pytest.approx(result.objective, rel=1e-6)
            assert costs["total"] == pytest.approx(total, rel=1e-12)
            assert costs["objective"] == result.objective  # the solution's own, as costs.csv writes it

    def test_heat_supplied_matches_share_of_demand(self, dataset):
        spec = specs_for_selector("base", [2009], HOURS)[2]  # 25%, two-hour tank
        result = run_cell(dataset, spec, 2009)
        expected = 0.25 * sum(
            window_july_june(ser, 2009, HOURS).values.sum()
            for (_, quantity), ser in dataset.series[2009].items()
            if quantity.startswith("heat_demand_MWth.")
        )
        assert result.solved.heat_supplied_mwh == pytest.approx(expected, rel=1e-9)


def test_parallel_persistence_matches_serial_bytes(tmp_path):
    ds = build_synth_dataset(17, ["AT", "DE"], [2009], 30)
    specs = specs_for_selector("base", [2009], 30)
    run_matrix(ds, specs, out_dir=tmp_path / "serial", jobs=1)
    run_matrix(ds, specs, out_dir=tmp_path / "parallel", jobs=3)
    for cell in sorted(p.name for p in (tmp_path / "serial").iterdir()):
        for name in ("capacities.csv", "dispatch.csv", "flows.csv", "heat.csv", "costs.csv"):
            a = (tmp_path / "serial" / cell / name).read_bytes()
            b = (tmp_path / "parallel" / cell / name).read_bytes()
            assert a == b, f"{cell}/{name}"
        a, b = (json.loads((tmp_path / run / cell / "manifest.json").read_text()) for run in ("serial", "parallel"))
        assert manifest_equal(a, b), cell


def test_manifest_equal_skips_only_the_varying_fields(dataset, tmp_path):
    result = run_cell(dataset, specs_for_selector("base", [2009], HOURS)[2], 2009)
    manifest = json.loads((persist_result(result, tmp_path) / "manifest.json").read_text())

    def edited(section, leaf):
        other = copy.deepcopy(manifest)
        fields = other[section] if section else other
        fields[leaf] += 1
        return other

    assert manifest_equal(manifest, copy.deepcopy(manifest))
    assert not manifest_equal(manifest, edited("", "objective"))
    assert not manifest_equal(manifest, edited("solver", "iterations"))
    assert manifest_equal(manifest, edited("timings", "solve_s"))
    assert manifest_equal(manifest, edited("solver", "wall_time_s"))


def test_repeated_cells_are_refused_before_any_cell_runs(tmp_path):
    with pytest.raises(ScenarioError, match="weather year 2009 is listed more than once"):
        ScenarioSpec("base-hp25-ep2", 0.25, 2.0, "base", (2009, 2010, 2009), 24)
    ds = build_synth_dataset(17, ["DE"], [2009], 24)
    spec = ScenarioSpec("base-hp25-ep2", 0.25, 2.0, "base", (2009,), 24)
    with pytest.raises(ScenarioError, match="cell base-hp25-ep2__y2009 is listed more than once"):
        run_matrix(ds, [spec, spec], out_dir=tmp_path / "out", jobs=2)
    assert not (tmp_path / "out").exists()


def test_a_nan_heat_trajectory_makes_an_error_cell(tmp_path, monkeypatch):
    # One tank-level hour of DE read back as NaN breaks the tank recursion.
    extract_solved = scenarios.extract_solved

    def extract_with_nan(*args):
        solved = extract_solved(*args)
        next(iter(solved.heat["DE"].storage_level_mwh.values()))[5] = np.nan
        return solved

    monkeypatch.setattr(scenarios, "extract_solved", extract_with_nan)
    ds = build_synth_dataset(17, ["DE"], [2009], 24)
    [result] = run_matrix(ds, [specs_for_selector("base", [2009], 24)[2]], out_dir=tmp_path)  # two-hour tank
    assert result.status == "error" and result.error.startswith("ValueError: DE: heat trajectory off its equations")

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    manifest = json.loads((tmp_path / "base-hp25-ep2__y2009" / "manifest.json").read_text(), parse_constant=refuse)
    assert manifest["status"] == "error" and manifest["heat_trajectory_max_violation"] == {}
    # The solve returned an optimum before the gate failed: the cell keeps its facts, not its objective.
    solver = manifest["solver"]
    assert solver["status"] == "optimal" and solver["iterations"] > 0 and math.isfinite(solver["max_residual"])
    assert manifest["residuals"] and manifest["objective"] is None


def test_manifest_records_the_seed(dataset, tmp_path):
    spec = specs_for_selector("base", [2009], HOURS)[0]
    result = run_cell(dataset, spec, 2009)
    loaded = load_result(persist_result(result, tmp_path))
    assert loaded.manifest["synth_seed"] == 21


def test_variants_preserve_bound_invariants(dataset):
    # Every variant yields bounds with low <= up on every entry.
    for variant in VARIANTS:
        bounds, _ = variant_tables(dataset.bounds, dataset.ntc, variant)
        for b in bounds.gen_mw.values():
            assert b.low <= b.up
        for b in bounds.storage_energy_mwh.values():
            assert b.low <= b.up


def test_variant_objective_orderings_follow_feasible_sets():
    # gas_free relaxes lower bounds -> cheaper or equal than base;
    # no_ntc removes trade and wind_cap adds upper bounds -> costlier or equal.
    ds = build_synth_dataset(23, ["AT", "DE"], [2009], 30)
    objs = {}
    for variant in ("base", "gas_free", "no_ntc", "wind_cap"):
        spec = ScenarioSpec(f"{variant}-hp00", 0.0, None, variant, [2009], 30)
        result = run_cell(ds, spec, 2009)
        assert result.ok, (variant, result.error)
        objs[variant] = result.objective
    assert objs["gas_free"] <= objs["base"] * (1 + 1e-9)
    assert objs["no_ntc"] >= objs["base"] * (1 - 1e-9)
    assert objs["wind_cap"] >= objs["base"] * (1 - 1e-9)
