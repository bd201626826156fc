"""Solve front-end, solution container, and residual verification.

Every LP is solved by HiGHS' dual simplex, called natively through
scipy's bundled HiGHS (``scipy.optimize._highspy``) in the row layout and
with the options of ``scipy.optimize.linprog(method="highs")``: presolve
on, primal and dual feasibility tolerances of 1e-9. Keeping linprog's
layout keeps its pivot path, so every ``x`` is bitwise the one linprog
gives and the result CSVs stay byte-identical; passing the rows as built
takes another path and moves ``x`` by up to about 1e-12. An optimum
carries HiGHS' row duals and reduced costs. :func:`verify` recomputes
every row activity and bound from scratch and reports violations by
constraint family; it never trusts solver-reported residuals. Each
optimum is verified once, inside :func:`solve`, which hands the report
on in ``Solution.residuals``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize._highspy import _core as _highs

from .lp import LinearProgram

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration_limit"
TIME_LIMIT = "time_limit"

_FEASIBILITY_TOL = 1e-9
# linprog's check of a reported optimum: bounds and rows within sqrt(tol) * 10.
_OPTIMUM_CHECK_TOL = float(np.sqrt(_FEASIBILITY_TOL) * 10)

# The options linprog(method="highs") passes; no time or iteration limit.
_HIGHS_OPTIONS = {
    "presolve": "on",
    "simplex_strategy": 1,  # dual simplex
    "primal_feasibility_tolerance": _FEASIBILITY_TOL,
    "dual_feasibility_tolerance": _FEASIBILITY_TOL,
    "highs_debug_level": 0,
    "output_flag": False,
    "log_to_console": False,
}

# HiGHS model status -> solution status, as linprog maps it, except that a
# time limit is its own status; any other model status raises SolverError.
_STATUS = {
    _highs.HighsModelStatus.kOptimal: OPTIMAL,
    _highs.HighsModelStatus.kInfeasible: INFEASIBLE,
    _highs.HighsModelStatus.kModelError: INFEASIBLE,
    _highs.HighsModelStatus.kUnbounded: UNBOUNDED,
    _highs.HighsModelStatus.kIterationLimit: ITERATION_LIMIT,
    _highs.HighsModelStatus.kTimeLimit: TIME_LIMIT,
}

# Row family -> constraint family used in residual reports.
CONSTRAINT_FAMILY = {
    "bal": "balance",
    "gcap": "availability",
    "sdyn": "storage",
    "scap": "storage",
    "sin": "storage",
    "sout": "storage",
    "hdyn": "heat",
    "hcop": "heat",
    "bio": "generation_bound",
}


class SolverError(RuntimeError):
    pass


@dataclass
class Solution:
    """Solved column values plus status and solve statistics."""

    status: str  # optimal | infeasible | unbounded | iteration_limit | time_limit
    objective: float | None
    values: np.ndarray
    lp: LinearProgram
    iterations: int
    wall_time_s: float
    backend: str  # "highs" from solve()
    max_residual: float  # residuals.max_violation of an optimum from solve(); NaN otherwise
    # Of an optimum from solve(): HiGHS' row duals in built-row order, signed
    # for the rows as built, and its reduced costs, so that
    # ``c - A.T @ row_duals - col_duals`` vanishes.
    row_duals: np.ndarray | None = None
    col_duals: np.ndarray | None = None
    highs_run_time_s: float | None = None  # HiGHS' own run time, from solve()
    dropped_entries: int = 0  # matrix entries HiGHS dropped as too small, from solve()
    residuals: ResidualReport | None = None  # verify()'s report of an optimum from solve()


@dataclass
class FamilyResidual:
    max_violation: float
    mean_violation: float
    rows: int

    @classmethod
    def of(cls, violations: np.ndarray) -> "FamilyResidual":
        return cls(float(violations.max()), float(violations.mean()), len(violations))


@dataclass
class ResidualReport:
    """Max/mean constraint violations grouped by family."""

    families: dict = field(default_factory=dict)  # family -> FamilyResidual

    @property
    def max_violation(self) -> float:
        # NaN-propagating, so a NaN residual passes no tolerance check.
        return float(np.max([f.max_violation for f in self.families.values()], initial=0.0))

    def within(self, tol: float) -> bool:
        return self.max_violation <= tol


def _row_violations(lp: LinearProgram, values: np.ndarray) -> np.ndarray:
    activity = lp.matrix() @ values
    rhs = lp.row_rhs
    senses = lp.row_sense
    viol = np.zeros(lp.num_rows)
    is_l = senses == "L"
    is_g = senses == "G"
    is_e = senses == "E"
    viol[is_l] = np.maximum(activity[is_l] - rhs[is_l], 0.0)
    viol[is_g] = np.maximum(rhs[is_g] - activity[is_g], 0.0)
    viol[is_e] = np.abs(activity[is_e] - rhs[is_e])
    return viol


def verify(lp: LinearProgram, solution: Solution | np.ndarray) -> ResidualReport:
    """Recompute all row activities and bounds from scratch.

    Violations are grouped by constraint family (balance, availability,
    storage, heat, generation_bound, other) plus a `bounds` family for
    variable-bound violations. Rows are grouped through the LP's row
    catalog, so a row added under its own name ``fam[...]`` (MPS import)
    counts with family ``fam``, and one with no such family as `other`.
    An LP without columns has no `bounds` family; an empty LP, no family.
    """
    values = solution.values if isinstance(solution, Solution) else np.asarray(solution)
    report = ResidualReport()
    viol = _row_violations(lp, values)
    # Families are filed as their first rows are added, so `code` follows the
    # constraint families' first rows; a family's rows are taken in row order.
    code: dict[str, int] = {}  # constraint family -> the label of its rows
    labels = np.full(lp.num_rows, -1, dtype=np.int8)
    for name, fam in lp.row_families.items():
        labels[fam.index.ravel()] = code.setdefault(CONSTRAINT_FAMILY.get(name, "other"), len(code))
    for family, label in code.items():
        report.families[family] = FamilyResidual.of(viol[labels == label])
    bounds = np.maximum(np.maximum(lp.col_lo - values, values - lp.col_hi), 0.0)
    if bounds.size:  # FamilyResidual.of takes no empty array
        report.families["bounds"] = FamilyResidual.of(bounds)
    return report


def _highs_inf(values: np.ndarray) -> np.ndarray:
    """`values` with every infinite bound replaced by HiGHS' infinity of the same sign."""
    return np.clip(values, -_highs.kHighsInf, _highs.kHighsInf)


def solve(lp: LinearProgram) -> Solution:
    """Solve an LP with one HiGHS run; never raises on infeasible/unbounded (see `status`).

    Rows go in as L rows, then G rows negated, then E rows, with row
    bounds ``[-inf, b]`` for the first two groups and ``[b, b]`` for E.
    An optimum carries its objective ``c·x + offset``, its duals and the
    :func:`verify` report of ``x`` in `residuals`, whose largest violation
    is `max_residual`; other statuses carry none of them. `wall_time_s`
    spans the HiGHS run and the solution read, not the verification.
    `dropped_entries` counts the matrix entries HiGHS drops, with a
    warning, as too small (|v| <= its ``small_matrix_value``); HiGHS
    solves without them, while :func:`verify` checks the LP with them.
    Raises :class:`SolverError` when HiGHS reports any other status, or an
    optimum that violates a row or bound by more than linprog's check allows.
    """
    t0 = time.perf_counter()
    senses = lp.row_sense
    order = np.concatenate([np.flatnonzero(senses == s) for s in "LGE"])
    n_l = int(np.count_nonzero(senses == "L"))
    n_ub = n_l + int(np.count_nonzero(senses == "G"))
    a = lp.matrix()[order]
    a.data[a.indptr[n_l] : a.indptr[n_ub]] *= -1.0
    upper = lp.row_rhs[order]
    upper[n_l:n_ub] *= -1.0
    lower = upper.copy()
    lower[:n_ub] = -np.inf
    highs = _highs._Highs()
    for key, value in _HIGHS_OPTIONS.items():
        if highs.setOptionValue(key, value) != _highs.HighsStatus.kOk:
            raise SolverError(f"HiGHS rejected option {key}={value!r}")
    dropped = int(np.count_nonzero(np.abs(a.data) <= highs.getOptionValue("small_matrix_value")[1]))
    passed = highs.passModel(
        lp.num_cols, lp.num_rows, a.nnz, int(_highs.MatrixFormat.kRowwise),
        int(_highs.ObjSense.kMinimize), 0.0,
        lp.col_obj, _highs_inf(lp.col_lo), _highs_inf(lp.col_hi), _highs_inf(lower), _highs_inf(upper),
        a.indptr.astype(np.int32, copy=False), a.indices.astype(np.int32, copy=False), a.data,
        np.zeros(lp.num_cols, dtype=np.int32),  # integrality: HiGHS reads one per column
    )
    del a, lower, upper  # HiGHS holds its own copy; free ours before the solve
    if passed == _highs.HighsStatus.kError:
        model_status, iterations = _highs.HighsModelStatus.kModelError, 0
    else:
        highs.run()
        model_status = highs.getModelStatus()
        info = highs.getInfo()
        iterations = int(info.simplex_iteration_count or info.ipm_iteration_count)
    status = _STATUS.get(model_status)
    if status is None:
        raise SolverError(f"HiGHS failed: {highs.modelStatusToString(model_status)}")
    x, row_duals, col_duals = np.zeros(lp.num_cols), None, None
    if status == OPTIMAL:
        sol = highs.getSolution()
        x = np.asarray(sol.col_value, dtype=float)
        col_duals = np.asarray(sol.col_dual, dtype=float)
        row_duals = np.empty(lp.num_rows)
        row_duals[order] = sol.row_dual
        row_duals[order[n_l:n_ub]] *= -1.0
        del sol
    run_time = highs.getRunTime()
    del highs  # free HiGHS' model and solution before verifying
    wall = time.perf_counter() - t0

    objective = residuals = None
    max_residual = float("nan")
    if status == OPTIMAL:
        objective = float(lp.col_obj @ x + lp.offset)
        residuals = verify(lp, x)
        max_residual = residuals.max_violation
        if not max_residual <= _OPTIMUM_CHECK_TOL:
            raise SolverError(f"HiGHS reported an optimum that violates the LP by {max_residual:.3e}")
    return Solution(
        status=status, objective=objective, values=x, lp=lp, iterations=iterations, wall_time_s=wall,
        backend="highs", max_residual=max_residual, row_duals=row_duals, col_duals=col_duals,
        highs_run_time_s=run_time, residuals=residuals, dropped_entries=dropped,
    )
