"""Solve front-end, solution container, and residual verification.

Every LP is solved by HiGHS through ``scipy.optimize.linprog(method="highs")``
with primal and dual feasibility tolerances of 1e-9. :func:`verify`
recomputes every row activity and bound from scratch and reports
violations by constraint family; it never trusts solver-reported
residuals.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize, sparse

from .lp import LinearProgram

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration_limit"

_FEASIBILITY_TOL = 1e-9

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

    status: str  # optimal | infeasible | unbounded | iteration_limit
    objective: float | None
    values: np.ndarray
    lp: LinearProgram
    iterations: int
    wall_time_s: float
    backend: str  # "highs" from solve()
    max_residual: float

    def value(self, name: str) -> float:
        return float(self.values[self.lp.col(name)])


@dataclass
class FamilyResidual:
    max_violation: float
    mean_violation: float
    rows: int


@dataclass
class ResidualReport:
    """Max/mean constraint violations grouped by family."""

    families: dict = field(default_factory=dict)  # family -> FamilyResidual

    @property
    def max_violation(self) -> float:
        return max((f.max_violation for f in self.families.values()), default=0.0)

    def within(self, tol: float) -> bool:
        return self.max_violation <= tol

    def worst_family(self) -> str | None:
        if not self.families:
            return None
        return max(self.families.items(), key=lambda kv: kv[1].max_violation)[0]


def _row_violations(lp: LinearProgram, values: np.ndarray) -> np.ndarray:
    if lp.num_rows == 0:
        return np.zeros(0)
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


def _bound_violations(lp: LinearProgram, values: np.ndarray) -> np.ndarray:
    return np.maximum(np.maximum(lp.col_lo - values, values - lp.col_hi), 0.0)


def verify(lp: LinearProgram, solution: Solution | np.ndarray) -> ResidualReport:
    """Recompute all row activities and bounds from scratch.

    Violations are grouped by constraint family (balance, availability,
    storage, heat, generation_bound, other) plus a `bounds` family for
    variable-bound violations. Rows are grouped through the LP's row
    catalog, so a row added under its own name ``fam[...]`` (MPS import)
    counts with family ``fam``, and one with no such family as `other`.
    An empty LP yields an empty report.
    """
    values = solution.values if isinstance(solution, Solution) else np.asarray(solution)
    report = ResidualReport()
    if lp.num_cols == 0:
        return report

    viol = _row_violations(lp, values)
    groups: dict[str, list] = {}
    for name, fam in lp.row_families.items():
        groups.setdefault(CONSTRAINT_FAMILY.get(name, "other"), []).append(fam.index.ravel())
    members = {family: np.sort(np.concatenate(parts)) for family, parts in groups.items()}
    # Families in the order of their first row; rows in row order.
    for family, rows in sorted(members.items(), key=lambda kv: kv[1][0]):
        arr = viol[rows]
        report.families[family] = FamilyResidual(
            max_violation=float(arr.max()), mean_violation=float(arr.mean()), rows=len(arr)
        )
    bviol = _bound_violations(lp, values)
    if len(bviol):
        report.families["bounds"] = FamilyResidual(
            max_violation=float(bviol.max()), mean_violation=float(bviol.mean()), rows=len(bviol)
        )
    return report


def _solve_highs(lp: LinearProgram) -> tuple:
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
            "primal_feasibility_tolerance": _FEASIBILITY_TOL,
            "dual_feasibility_tolerance": _FEASIBILITY_TOL,
        },
    )
    status_map = {0: OPTIMAL, 1: ITERATION_LIMIT, 2: INFEASIBLE, 3: UNBOUNDED}
    status = status_map.get(res.status)
    if status is None:
        raise SolverError(f"HiGHS failed: {res.message}")
    x = res.x if res.x is not None else np.zeros(lp.num_cols)
    iters = int(getattr(res, "nit", 0) or 0)
    return status, np.asarray(x, dtype=float), iters


def solve(lp: LinearProgram) -> Solution:
    """Solve an LP with HiGHS; never raises on infeasible/unbounded (see `status`).

    An optimal solution carries its objective ``c·x + offset`` and the
    largest row or bound violation of ``x``; other statuses carry neither.
    Raises :class:`SolverError` when HiGHS reports any other status.
    """
    t0 = time.perf_counter()
    status, x, iterations = _solve_highs(lp)
    wall = time.perf_counter() - t0

    objective = None
    max_residual = float("nan")
    if status == OPTIMAL:
        objective = float(lp.col_obj @ x + lp.offset)
        max_residual = max(
            float(_row_violations(lp, x).max(initial=0.0)),
            float(_bound_violations(lp, x).max(initial=0.0)),
        )
    return Solution(
        status=status,
        objective=objective,
        values=x,
        lp=lp,
        iterations=iterations,
        wall_time_s=wall,
        backend="highs",
        max_residual=max_residual,
    )
