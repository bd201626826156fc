"""Show that the benchmark's correctness checks bite, on reduced sizes.

    python3 perfbench/selftest.py

Each check must pass on the program's own output and fail once the
output is perturbed: one dispatch value moved by 1 MW, one heat output
moved by 1 MW, one MPS coefficient altered, one feasible-point entry
pushed past its bound. Exits 0 when every line reads ok; runs in seconds.
"""

from __future__ import annotations

import csv
import os
import re
import shutil
import sys

from run import OUT, import_heatgrid

import_heatgrid()

import checks  # noqa: E402
import workloads  # noqa: E402
from heatgrid import dataset as hg_dataset  # noqa: E402
from heatgrid import model as hg_model  # noqa: E402
from heatgrid import mps as hg_mps  # noqa: E402
from heatgrid import scenarios as hg_scenarios  # noqa: E402
from heatgrid import solver as hg_solver  # noqa: E402

SEED = 7
YEAR = workloads.FIRST_YEAR


def _report(results: list, what: str, clean: list, perturbed: list) -> None:
    ok = not clean and bool(perturbed)
    results.append(ok)
    first = perturbed[0] if perturbed else "nothing"
    print(f"{'ok  ' if ok else 'FAIL'} {what}: {len(clean)} problems as written; perturbed: {first}")


def _edit_csv(path, row_matches, column: int, delta: float) -> None:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    for row in rows[1:]:
        if row_matches(row):
            row[column] = repr(float(row[column]) + delta)
            break
    else:
        raise SystemExit(f"selftest: no row to perturb in {path}")
    with path.open("w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def matrix_checks(results: list, workdir) -> None:
    hours = 48
    matrix = workloads.MatrixWorkload("selftest", "base", years=1, hours=hours, desk=True)
    dataset = matrix.setup(SEED)
    hg_scenarios.run_matrix(dataset, matrix.specs, out_dir=workdir / "results")
    demand = matrix.heat_demand(SEED, YEAR)
    cell_dir = workdir / "results" / f"base-hp25-ep2__y{YEAR}"
    cell = checks.read_cell(cell_dir)
    clean_balance = checks.balance_problems(cell)
    clean_heat = checks.heat_problems(cell, demand)

    _edit_csv(cell_dir / "dispatch.csv", lambda r: r[2] == "generation" and r[0] == "17", 4, 1.0)
    _report(results, "hourly balance", clean_balance, checks.balance_problems(checks.read_cell(cell_dir)))
    _edit_csv(cell_dir / "heat.csv", lambda r: r[0] == "5", 5, 1.0)
    _report(results, "heat output = share x demand", clean_heat,
            checks.heat_problems(checks.read_cell(cell_dir), demand))


def mps_checks(results: list, workdir) -> None:
    dataset = hg_dataset.build_synth_dataset(SEED, workloads.COUNTRIES, (YEAR,), 24)
    spec = hg_scenarios.specs_for_selector("base", (YEAR,), 24)[2]
    lp = hg_model.build_model(hg_scenarios.make_instance(dataset, spec, YEAR))
    path = hg_mps.export_mps(lp, workdir / "model.mps")
    back = hg_mps.import_mps(path)
    lossless, clean = checks.mps_problems(lp, back)
    clean += checks.sidecar_problems(path, lp)
    print(f"     MPS import returns {back.num_cols} of {lp.num_cols} columns (lossless: {lossless})")

    text = path.read_text().split("\n")
    start = text.index("COLUMNS")
    for i in range(start + 1, len(text)):
        fields = text[i].split()
        if len(fields) == 3 and fields[1] != hg_mps.OBJ_NAME:
            number = fields[2]
            text[i] = re.sub(re.escape(number) + "$", repr(float(number) * 1.5 + 0.25), text[i])
            break
    path.write_text("\n".join(text))
    _lossless, perturbed = checks.mps_problems(lp, hg_mps.import_mps(path))
    _report(results, "MPS round trip", clean, perturbed)


def point_checks(results: list) -> None:
    hours = 48
    dataset = hg_dataset.build_synth_dataset(SEED, workloads.COUNTRIES, (YEAR,), hours)
    spec = hg_scenarios.specs_for_selector("base", (YEAR,), hours)[2]
    instance = hg_scenarios.make_instance(dataset, spec, YEAR)
    lp = hg_model.build_model(instance)
    x, cost = checks.feasible_point(instance, lp)
    clean = checks.count_problems(instance, lp)
    clean += checks.point_problems(lp, x, cost, hg_solver.verify(lp, x))

    col = next(i for i, name in enumerate(lp.col_names) if name.startswith("hl["))
    x[col] = lp.hi[col] + 1e-3
    _report(results, "feasible point and its cost", clean,
            checks.point_problems(lp, x, cost, hg_solver.verify(lp, x)))


def main() -> int:
    workdir = OUT / f"selftest-{os.getpid()}"
    results: list = []
    try:
        workdir.mkdir(parents=True)
        matrix_checks(results, workdir)
        mps_checks(results, workdir)
        point_checks(results)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
