"""The native HiGHS call against the ``linprog`` call it replaced.

``_linprog_reference`` is the former solve path, kept here as the
reference: the same LP handed to ``scipy.optimize.linprog(method="highs")``
as split and stacked L, negated G and E blocks. The native call must
reproduce its status, its ``x`` bit for bit and its iteration count, and
its duals must equal linprog's marginals.
"""

import numpy as np
import pytest
from scipy import optimize, sparse
from scipy.optimize._linprog_highs import _highs_to_scipy_status_message

from desk import random_desk_instance, random_lp
from heatgrid import solver
from heatgrid.dataset import build_synth_dataset
from heatgrid.lp import LinearProgram
from heatgrid.model import build_model
from heatgrid.scenarios import make_instance, run_cell, specs_for_selector
from heatgrid.solver import SolverError, solve

SYNTH_YEAR = 2009


def _linprog_reference(lp):
    """Status, ``x``, iteration count and linprog's result, via linprog as before."""
    senses = lp.row_sense
    matrix = lp.matrix()
    rhs = lp.row_rhs
    is_e = senses == "E"
    is_l = senses == "L"
    is_g = senses == "G"
    a_eq = matrix[is_e] if is_e.any() else None
    b_eq = rhs[is_e] if is_e.any() else None
    ub_blocks, ub_rhs = [], []
    if is_l.any():
        ub_blocks.append(matrix[is_l])
        ub_rhs.append(rhs[is_l])
    if is_g.any():
        ub_blocks.append(-matrix[is_g])
        ub_rhs.append(-rhs[is_g])
    a_ub = sparse.vstack(ub_blocks) if ub_blocks else None
    b_ub = np.concatenate(ub_rhs) if ub_rhs else None
    bounds = np.column_stack((lp.col_lo, lp.col_hi))
    res = optimize.linprog(
        c=lp.col_obj,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=bounds,
        method="highs",
        options={
            "presolve": True,
            "primal_feasibility_tolerance": 1e-9,
            "dual_feasibility_tolerance": 1e-9,
        },
    )
    status = {0: "optimal", 1: "iteration_limit", 2: "infeasible", 3: "unbounded"}[res.status]
    x = res.x if res.x is not None else np.zeros(lp.num_cols)
    return status, np.asarray(x, dtype=float), int(getattr(res, "nit", 0) or 0), res


def _linprog_row_duals(lp, res):
    """linprog's marginals in built-row order, signed for the rows as built."""
    senses = lp.row_sense
    duals = np.empty(lp.num_rows)
    ub = (senses == "L") | (senses == "G")
    # linprog stacks L rows before G rows, each in built order.
    ub_rows = np.concatenate([np.flatnonzero(senses == "L"), np.flatnonzero(senses == "G")])
    duals[ub_rows] = res.ineqlin.marginals
    duals[senses == "G"] *= -1.0
    duals[~ub] = res.eqlin.marginals
    return duals


def assert_same_bits(lp):
    sol = solve(lp)
    status, x, iterations, _ = _linprog_reference(lp)
    assert sol.status == status
    assert sol.values.tobytes() == x.tobytes()
    assert sol.iterations == iterations
    return sol


def assert_duals_certify(lp, sol):
    """Stationarity ``c - A.T y - z = 0`` and agreement with linprog's marginals."""
    assert sol.status == "optimal"
    stationarity = lp.col_obj - lp.matrix().T @ sol.row_duals - sol.col_duals
    assert np.abs(stationarity).max(initial=0.0) <= 1e-7
    _, _, _, res = _linprog_reference(lp)
    np.testing.assert_allclose(sol.row_duals, _linprog_row_duals(lp, res), rtol=0, atol=1e-9)


@pytest.fixture(scope="module")
def synth_dataset():
    return build_synth_dataset(5, ["AT", "DE", "FR"], [SYNTH_YEAR], 24)


def synth_lp(dataset, spec):
    return build_model(make_instance(dataset, spec, SYNTH_YEAR))


@pytest.mark.parametrize("seed", range(60))
def test_random_lps_match_linprog_bitwise(seed):
    assert_same_bits(random_lp(seed))


@pytest.mark.parametrize("seed", range(10))
def test_desk_instances_match_linprog_bitwise(seed):
    lp = build_model(random_desk_instance(seed))
    assert_duals_certify(lp, assert_same_bits(lp))


@pytest.mark.parametrize("hours", [1, 24])
def test_synthetic_cells_match_linprog_bitwise(synth_dataset, hours):
    specs = specs_for_selector("all", [SYNTH_YEAR], hours)
    assert len(specs) == 13
    for spec in specs:
        lp = synth_lp(synth_dataset, spec)
        if hours == 1 and spec.name == "base-hp25-ep2":
            assert (lp.matrix().data == 0.0).any()  # cancelled cyclic self-terms stay stored
        sol = assert_same_bits(lp)
        assert sol.status == "optimal", spec.name


def test_synthetic_cell_duals_certify_optimality(synth_dataset):
    spec = specs_for_selector("base", [SYNTH_YEAR], 24)[2]
    lp = synth_lp(synth_dataset, spec)
    sol = solve(lp)
    assert_duals_certify(lp, sol)
    assert (sol.row_duals[lp.row_sense == "L"] <= 1e-9).all()  # a <= row can only cost


@pytest.mark.parametrize("seed", range(60))
def test_random_lp_duals_certify_optimality(seed):
    lp = random_lp(seed)
    sol = solve(lp)
    if sol.status != "optimal":
        assert sol.row_duals is None and sol.col_duals is None and sol.residuals is None
        return
    assert_duals_certify(lp, sol)
    senses = lp.row_sense
    assert (sol.row_duals[senses == "L"] <= 1e-9).all()
    assert (sol.row_duals[senses == "G"] >= -1e-9).all()  # G rows are signed as built
    # The optimum carries verify()'s report of its x, family by family, and its largest violation.
    report = solver.verify(lp, sol.values)
    assert list(sol.residuals.families) == list(report.families)
    assert sol.residuals.families == report.families
    assert sol.max_residual == sol.residuals.max_violation


def test_status_map_follows_linprog_except_time_limit():
    linprog_status = {0: "optimal", 1: "iteration_limit", 2: "infeasible", 3: "unbounded", 4: None}
    for model_status in solver._highs.HighsModelStatus.__members__.values():
        code, _ = _highs_to_scipy_status_message(model_status, "")
        expected = linprog_status[code]
        if model_status == solver._highs.HighsModelStatus.kTimeLimit:
            expected = solver.TIME_LIMIT
        assert solver._STATUS.get(model_status) == expected, model_status


def test_time_and_iteration_limits_have_their_own_status(synth_dataset, monkeypatch):
    lp = synth_lp(synth_dataset, specs_for_selector("base", [SYNTH_YEAR], 24)[2])
    options = dict(solver._HIGHS_OPTIONS)
    monkeypatch.setattr(solver, "_HIGHS_OPTIONS", {**options, "time_limit": 0.0})
    sol = solve(lp)
    assert sol.status == "time_limit"
    assert sol.objective is None and sol.row_duals is None and sol.residuals is None
    monkeypatch.setattr(solver, "_HIGHS_OPTIONS", {**options, "simplex_iteration_limit": 1})
    sol = solve(lp)
    assert sol.status == "iteration_limit"
    assert sol.objective is None and sol.row_duals is None


def test_an_empty_model_raises_with_highs_status():
    with pytest.raises(SolverError, match="Empty"):
        solve(LinearProgram("empty").freeze())


def test_an_optimum_off_the_lp_raises(monkeypatch):
    lp = random_lp(4)
    assert solve(lp).status == "optimal"
    verify = solver.verify
    # solve() gates on the report of the x it verifies; as if HiGHS had returned x + 1.
    monkeypatch.setattr(solver, "verify", lambda lp, x: verify(lp, x + 1.0))
    with pytest.raises(SolverError, match="violates"):
        solve(lp)


@pytest.fixture
def pass_statuses(monkeypatch):
    """The status of every passModel call that solve() makes, in order."""
    statuses = []

    class Recording(solver._highs._Highs):
        def passModel(self, *args):
            statuses.append(super().passModel(*args))
            return statuses[-1]

    monkeypatch.setattr(solver._highs, "_Highs", Recording)
    return statuses


def one_entry_lp(coef: float) -> LinearProgram:
    lp = LinearProgram("tiny")
    lp.add_named_cols(["x", "y"], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0])
    lp.add_named_rows(["r"], ["G"], [0.5], ([0, 0], [0, 1], [1.0, coef]))
    return lp.freeze()


def test_dropped_entries_are_counted_as_highs_warns(pass_statuses):
    dataset = build_synth_dataset(7, ["AT", "DE", "FR"], [SYNTH_YEAR], 48)
    spec = specs_for_selector("base", [SYNTH_YEAR], 48)[0]
    lps = [
        build_model(make_instance(dataset, spec, SYNTH_YEAR)),
        random_lp(4),
        *(one_entry_lp(coef) for coef in (1e-10, -1e-9, 1.1e-9, -5e-17)),
    ]
    dropped = [solve(lp).dropped_entries for lp in lps]
    # 6 night-hour solar availabilities of about -5e-17 in the base-hp00 cell.
    assert dropped == [6, 0, 1, 1, 0, 1]
    assert lps[0].name == "base-hp00__y2009"
    status = solver._highs.HighsStatus
    assert pass_statuses == [status.kWarning if n else status.kOk for n in dropped]
    # A cell's manifest carries the count.
    assert run_cell(dataset, spec, SYNTH_YEAR).solver_stats["dropped_entries"] == 6
