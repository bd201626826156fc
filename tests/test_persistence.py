"""Result-cell persistence: the declared table layout against row-at-a-time references.

`reference_write` and `reference_load` are the csv-module writer and reader
that the declared layout replaced, one row per `writerow` and one parse
loop per table. The layout must reproduce their bytes and their arrays.
`reference_manifest` is the one dict literal that the declared manifest
fields replaced; they must reproduce its bytes.
"""

import csv
import dataclasses
import json
import re
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor
from itertools import takewhile
from pathlib import Path

import numpy as np
import pytest

from heatgrid import analysis
from heatgrid.dataset import build_synth_dataset
from heatgrid.heat import HeatTrajectory
from heatgrid.model import DISPATCH_KINDS
from heatgrid.scenarios import (
    CELL_TABLES,
    MANIFEST_FIELDS,
    ScenarioSpec,
    load_result,
    load_results,
    persist_result,
    run_cell,
    specs_for_selector,
    write_cell_tables,
)
from heatgrid.staticdata import Bounds

HOURS = 30
CELLS = ("base-hp25-ep2", "base-hp25-ep0", "base-hp00", "error", "infeasible")


@pytest.fixture(scope="module")
def results():
    ds = build_synth_dataset(17, ["AT", "DE"], [2009], HOURS)
    out = {spec.name: run_cell(ds, spec, 2009) for spec in specs_for_selector("base", [2009], HOURS)}
    out["error"] = run_cell(ds, ScenarioSpec("error", 0.0, None, "base", [2009], HOURS * 10), 2009)
    assert out["error"].status == "error"
    no_generation = ds.bounds.replace(gen={key: Bounds(0.0, 0.0) for key in ds.bounds.gen_mw})  # load goes unmet
    spec = ScenarioSpec("infeasible", 0.0, None, "base", [2009], HOURS)
    out["infeasible"] = run_cell(dataclasses.replace(ds, bounds=no_generation), spec, 2009)
    assert out["infeasible"].status == "infeasible" and out["infeasible"].solver_stats
    assert all(out[name].ok for name in CELLS[:3])
    assert any(level.any() for level in out["base-hp25-ep2"].solved.heat["DE"].storage_level_mwh.values())
    return out


def _rows(path, rows, header):
    with path.open("w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def reference_write(result, cell_dir):
    """The five CSVs of a cell, written one `writerow` per row."""
    cell_dir.mkdir()
    solved = result.solved
    caps, dispatch, flows, heat, costs = [], [], [], [], []
    if solved:
        H = solved.instance.window.hours
        for c in sorted(solved.capacities_mw):
            for (kind, name), mw in sorted(solved.capacities_mw[c].items()):
                caps.append([c, kind, name, repr(float(mw))])
        for kind in ("generation", "charge", "discharge", "soc_mwh", "spill_mwh"):
            block = {(c, name): arr for (c, k, name), arr in solved.dispatch_mw.items() if k == kind}
            for (c, name) in sorted(block):
                arr = block[(c, name)]
                for h in range(H):
                    dispatch.append([h, c, kind, name, repr(float(arr[h]))])
        for c in sorted(solved.instance.countries):
            load = solved.instance.loads_mw[c]
            for h in range(H):
                dispatch.append([h, c, "load", "electric", repr(float(load[h]))])
            if c in solved.heat:
                hp = solved.heat[c].total_electricity_mw()
                for h in range(H):
                    dispatch.append([h, c, "load", "heat_pump", repr(float(hp[h]))])
        for (a, b) in sorted(solved.flows_mw):
            arr = solved.flows_mw[(a, b)]
            for h in range(H):
                flows.append([h, a, b, repr(float(arr[h]))])
        for c in sorted(solved.heat):
            traj = solved.heat[c]
            for unit in traj.keys:
                bt, st, hpt = unit
                ho = traj.heat_output_mw[unit]
                hi = traj.heat_generated_mw[unit]
                hl = traj.storage_level_mwh[unit]
                e = traj.electricity_mw[unit]
                for h in range(len(ho)):
                    heat.append(
                        [h, c, bt, st, hpt, repr(float(ho[h])), repr(float(hi[h])),
                         repr(float(hl[h])), repr(float(e[h]))]
                    )
        for component in ("investment", "fixed_om", "variable", "storage_marginal", "total"):
            costs.append([component, repr(float(solved.costs_eur[component]))])
        costs.append(["objective", repr(float(result.objective))])
        costs.append(["heat_supplied_mwh", repr(float(solved.heat_supplied_mwh))])
    _rows(cell_dir / "capacities.csv", caps, ["country", "kind", "name", "value"])
    _rows(cell_dir / "dispatch.csv", dispatch, ["hour", "country", "kind", "name", "value_mw"])
    _rows(cell_dir / "flows.csv", flows, ["hour", "from", "to", "value_mw"])
    _rows(
        cell_dir / "heat.csv", heat,
        ["hour", "country", "building_type", "sink", "heat_pump_type", "heat_output_mw_th",
         "heat_generated_mw_th", "storage_level_mwh_th", "electricity_mw_el"],
    )
    _rows(cell_dir / "costs.csv", costs, ["component", "value_eur"])


def reference_manifest(result):
    """A cell's manifest.json, written from one dict literal."""
    spec, solved, report = result.spec, result.solved, result.residual_report
    manifest = {
        "schema": "heatgrid-result-v1",
        "scenario": {"name": spec.name, "heat_share": spec.heat_share, "ep": spec.ep, "variant": spec.variant,
                     "window_hours": spec.window_hours},
        "year": result.year,
        "status": result.status,
        "objective": result.objective,
        "error": result.error,
        "traceback": result.traceback,
        "provenance": result.provenance,
        "synth_seed": result.synth_seed,
        "solver": result.solver_stats,
        "timings": result.timings,
        "residuals": {family: {"max": fam.max_violation, "mean": fam.mean_violation, "rows": fam.rows}
                      for family, fam in (report.families if report else {}).items()},
        "heat_trajectory_max_violation": {c: rep.max_violation for c, rep in result.trajectory_reports.items()},
        "ntc_pairs": sorted(f"{a}>{b}" for a, b in solved.instance.ntc.limits_mw) if solved else [],
    }
    return json.dumps(manifest, indent=1, sort_keys=True) + "\n"


def _body(path):
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        yield from reader


def reference_load(cell_dir, hours):
    """The tables of a saved cell, parsed one row at a time into zero-filled arrays."""
    capacities, dispatch, flows, heat, costs = {}, {}, {}, {}, {}
    for c, kind, name, value in _body(cell_dir / "capacities.csv"):
        capacities.setdefault(c, {})[(kind, name)] = float(value)
    for h, c, kind, name, value in _body(cell_dir / "dispatch.csv"):
        key = (c, kind, name)
        if key not in dispatch:
            dispatch[key] = np.zeros(hours)
        dispatch[key][int(h)] = float(value)
    for h, a, b, value in _body(cell_dir / "flows.csv"):
        if (a, b) not in flows:
            flows[(a, b)] = np.zeros(hours)
        flows[(a, b)][int(h)] = float(value)
    for h, c, bt, st, hpt, ho, hi, hl, e in _body(cell_dir / "heat.csv"):
        traj = heat.setdefault(c, HeatTrajectory({}, {}, {}, {}))
        for arrays, value in zip((traj.heat_output_mw, traj.heat_generated_mw, traj.storage_level_mwh,
                                  traj.electricity_mw), (ho, hi, hl, e)):
            arrays.setdefault((bt, st, hpt), np.zeros(hours))[int(h)] = float(value)
    for component, value in _body(cell_dir / "costs.csv"):
        costs[component] = float(value)
    return {"capacities_mw": capacities, "dispatch_mw": dispatch, "flows_mw": flows,
            "heat": heat, "costs_eur": costs}


def assert_bitwise_equal(got, want, where=""):
    if isinstance(want, HeatTrajectory):
        assert isinstance(got, HeatTrajectory), where
        for f in dataclasses.fields(want):
            assert_bitwise_equal(getattr(got, f.name), getattr(want, f.name), f"{where}/{f.name}")
    elif isinstance(want, dict):
        assert list(got) == list(want), where
        for key in want:
            assert_bitwise_equal(got[key], want[key], f"{where}/{key}")
    elif isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray) and got.dtype == want.dtype, where
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), where
    else:
        assert type(got) is type(want) and got.hex() == want.hex(), where


@pytest.mark.parametrize("cell", CELLS)
def test_files_match_row_writer(results, tmp_path, cell):
    cell_dir = persist_result(results[cell], tmp_path / "new")
    reference_write(results[cell], tmp_path / "ref")
    for table in CELL_TABLES:
        assert (cell_dir / table.file).read_bytes() == (tmp_path / "ref" / table.file).read_bytes(), table.file


@pytest.mark.parametrize("cell", CELLS)
def test_load_matches_row_loader(results, tmp_path, cell):
    loaded = load_result(persist_result(results[cell], tmp_path))
    want = reference_load(loaded.path, HOURS if cell != "error" else HOURS * 10)
    for name, table in want.items():
        assert_bitwise_equal(getattr(loaded, name), table, name)
    if cell == "error":
        assert not any(want.values())  # headers only


@pytest.mark.parametrize("cell", CELLS)
def test_manifest_matches_dict_writer(results, tmp_path, cell):
    cell_dir = persist_result(results[cell], tmp_path)
    assert (cell_dir / "manifest.json").read_text() == reference_manifest(results[cell])


def _key_paths(manifest, prefix=""):
    """The key paths of a manifest, each ending at a declared field or a leaf."""
    for key, value in manifest.items():
        path = prefix + key
        if isinstance(value, dict) and path not in {f.path for f in MANIFEST_FIELDS}:
            yield from _key_paths(value, path + ".")
        else:
            yield path


@pytest.mark.parametrize("cell", CELLS)
def test_manifest_holds_the_declared_fields(results, tmp_path, cell):
    manifest = json.loads((persist_result(results[cell], tmp_path) / "manifest.json").read_text())
    declared = [f.path for f in MANIFEST_FIELDS]
    if cell == "error":  # nothing was solved: no solver field, under an empty "solver"
        assert manifest["solver"] == {} and manifest["residuals"] == {} and manifest["ntc_pairs"] == []
        declared = [path for path in declared if not path.startswith("solver.")]
    assert sorted(_key_paths(manifest)) == sorted(declared)
    for f in MANIFEST_FIELDS:
        section, _, leaf = f.path.rpartition(".")
        fields = manifest[section] if section else manifest
        assert leaf not in fields or type(fields[leaf]) in f.types, f.path


def _readme_table(header: str) -> list:
    """The rows of the README table under `header`, as written."""
    lines = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
    return list(takewhile(lambda line: line.startswith("|"), lines[lines.index(header) + 2 :]))


def test_readme_manifest_table_is_the_declaration():
    rows = _readme_table("| field | JSON types | read by `analyze` as | varies between runs |")
    assert rows == [  # field, JSON types, read by analyze as, varies
        f"| `{f.path}` | {' or '.join(t.__name__ for t in f.types)}{', at least 1' * f.positive} "
        f"| {f'`{f.attr}`' if f.attr else ''} | {'yes' * f.varies} |"
        for f in MANIFEST_FIELDS
    ]


def test_readme_result_table_is_the_declaration():
    rows = _readme_table("| file | header | blocks, in file order |")
    assert [" | ".join(row.split(" | ")[:2]) for row in rows] == [
        f"| `{t.file}` | `{','.join(t.columns)}`" for t in CELL_TABLES
    ]


def test_readme_analysis_table_is_the_declaration():
    rows = _readme_table("| file | columns |")
    tables = (analysis.RLDC, analysis.PEAKS, analysis.EVENTS, analysis.HEAT_DAILY, analysis.FIRM_DELTA)
    assert [row.split(" (")[0] for row in rows[: len(tables)]] == [
        f"| `{t.file}` | `{','.join(t.columns)}`" for t in tables
    ]


def test_dispatch_rows_follow_the_readme_block_order(results):
    (row,) = [r for r in _readme_table("| file | header | blocks, in file order |") if r.startswith("| `dispatch.csv`")]
    kinds = re.findall(r"`(\w+)`", row.split(" | ")[2].split(", each over")[0])
    assert kinds == list(DISPATCH_KINDS)
    solved = results["base-hp25-ep2"].solved
    want = [(c, kind, name) for kind in kinds
            for c, name in sorted((c, name) for c, k, name in solved.dispatch_mw if k == kind)]
    for c in sorted(solved.instance.countries):
        want += [(c, "load", "electric")] + [(c, "load", "heat_pump")] * (c in solved.heat)
    assert list(solved.dispatch_mw) == want
    assert {"generation", "discharge", "soc_mwh"} <= {kind for _, kind, _ in want}
    assert ("DE", "load", "heat_pump") in want


def test_a_solved_and_a_saved_cell_answer_the_same_reads(results, tmp_path):
    solved = results["base-hp25-ep2"].solved
    loaded = load_result(persist_result(results["base-hp25-ep2"], tmp_path))
    assert solved.countries() == loaded.countries() == ["AT", "DE"]
    for c in solved.countries():
        assert_bitwise_equal(solved.load_mw(c), loaded.load_mw(c), f"{c} load")
        assert_bitwise_equal(solved.hp_load_mw(c), loaded.hp_load_mw(c), f"{c} heat-pump load")
        for tech in [*solved.instance.techs, "no_such_tech"]:
            assert_bitwise_equal(solved.generation_mw(c, tech), loaded.generation_mw(c, tech), f"{c} {tech}")
        assert_bitwise_equal(solved.heat_output_mw(c), loaded.heat_output_mw(c), f"{c} heat output")
    assert solved.hours == loaded.hours == HOURS
    assert_bitwise_equal(analysis.system_residual_load(solved, include_hp=True),
                         analysis.system_residual_load(loaded, include_hp=True), "residual load")
    assert list(solved.heat) == list(loaded.heat) == ["AT", "DE"]
    for c, traj in solved.heat.items():  # every trajectory array, unit by unit in file order
        for f in dataclasses.fields(traj):
            want = getattr(traj, f.name)
            assert_bitwise_equal(getattr(loaded.heat[c], f.name), {unit: want[unit] for unit in traj.keys}, c)
    assert_bitwise_equal(loaded.costs_eur, solved.costs_eur, "costs")
    assert solved.heat_supplied_mwh.hex() == loaded.heat_supplied_mwh.hex()
    assert analysis.cost_report(solved) == analysis.cost_report(loaded)


@pytest.mark.parametrize("cell", CELLS)
def test_a_loaded_cell_writes_back_to_the_same_bytes(results, tmp_path, cell):
    cell_dir = persist_result(results[cell], tmp_path / "first")
    loaded = load_result(cell_dir)
    (tmp_path / "again").mkdir()
    write_cell_tables(tmp_path / "again", loaded)
    for table in CELL_TABLES:
        assert (tmp_path / "again" / table.file).read_bytes() == (cell_dir / table.file).read_bytes(), table.file


def test_load_results_skips_a_temporary_cell_directory(results, tmp_path):
    cells = sorted(persist_result(results[name], tmp_path) for name in CELLS[:3])
    # A write cut short leaves its dot-named temporary directory behind, manifest included.
    shutil.copytree(cells[-1], tmp_path / f".{cells[-1].name}.tmp-4242")
    loaded = load_results(tmp_path)
    assert [r.path for r in loaded] == cells
    assert len(analysis.pair_results(loaded)) == 2


def test_concurrent_persists_into_one_directory(results, tmp_path):
    # More writer threads than cores, switching often, all into one out_dir.
    cells = [dataclasses.replace(results[name], year=2009 + i) for i in range(3) for name in CELLS]
    for result in cells:
        persist_result(result, tmp_path / "serial")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(persist_result, result, tmp_path / "threads") for result in cells]
            written = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert sorted(p.name for p in (tmp_path / "threads").iterdir()) == sorted(p.name for p in written)
    assert len(written) == len(cells) == len(set(written))  # no temporary directory left behind
    for cell_dir in written:
        for table in CELL_TABLES:
            want = (tmp_path / "serial" / cell_dir.name / table.file).read_bytes()
            assert (cell_dir / table.file).read_bytes() == want, f"{cell_dir.name}/{table.file}"


def test_writer_rejects_a_key_that_needs_quoting(results, tmp_path):
    result = results["base-hp00"]
    solved = dataclasses.replace(result.solved, flows_mw={("AT", "D,E"): np.zeros(HOURS)})
    with pytest.raises(ValueError, match="would need CSV quoting"):
        persist_result(dataclasses.replace(result, solved=solved), tmp_path)
    assert not list(tmp_path.iterdir())  # the temporary directory is gone


def test_reader_rejects_a_key_split_into_two_runs(results, tmp_path):
    cell_dir = persist_result(results["base-hp00"], tmp_path)
    path = cell_dir / "flows.csv"
    header, *rows = path.read_text().splitlines(keepends=True)
    rows[HOURS // 2], rows[HOURS] = rows[HOURS], rows[HOURS // 2]  # a row of the second key moves up
    path.write_text(header + "".join(rows))
    with pytest.raises(ValueError, match="flows.csv: each key must be one run of hours 0..29"):
        load_result(cell_dir)
