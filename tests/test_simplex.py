"""The solve path (HiGHS dual simplex): statuses, determinism, random LPs.

Random LPs are checked two ways: each optimum must verify and carry the
objective ``c·x + offset``, and its status and objective must match a
reference solve of the same LP written out densely and handed to HiGHS's
interior-point method.
"""

import numpy as np
import pytest
from scipy import optimize

from desk import random_lp
from heatgrid.lp import LinearProgram
from heatgrid.solver import solve, verify

INF = float("inf")


def lp_min_x_ge_1():
    lp = LinearProgram("t")
    x = lp.add_col("x", 0.0, INF, 1.0)
    lp.add_row("r", "G", 1.0, [(x, 1.0)])
    return lp.freeze()


def test_minimal_example():
    sol = solve(lp_min_x_ge_1())
    assert sol.status == "optimal"
    assert sol.backend == "highs"
    assert sol.objective == pytest.approx(1.0)
    assert sol.values[sol.lp.col("x")] == pytest.approx(1.0)


def test_contradictory_bounds_infeasible():
    lp = LinearProgram("t")
    x = lp.add_col("x", 0.0, 1.0, 1.0)
    lp.add_row("r", "G", 5.0, [(x, 1.0)])
    sol = solve(lp.freeze())
    assert sol.status == "infeasible"
    assert sol.objective is None


def test_unbounded():
    lp = LinearProgram("t")
    x = lp.add_col("x", -INF, INF, 1.0)
    lp.add_row("r", "L", 3.0, [(x, 1.0)])
    assert solve(lp.freeze()).status == "unbounded"


def test_equality_and_free_variables():
    lp = LinearProgram("t")
    x = lp.add_col("x", -INF, INF, 2.0)
    y = lp.add_col("y", 0.0, INF, 3.0)
    lp.add_row("r1", "E", 4.0, [(x, 1.0), (y, 1.0)])
    lp.add_row("r2", "G", -2.0, [(x, 1.0), (y, -1.0)])
    sol = solve(lp.freeze())
    assert sol.status == "optimal"
    # x = 4 - y turns the objective into 8 + y, so y = 0 and x = 4.
    assert sol.objective == pytest.approx(8.0, rel=1e-9)
    assert sol.values[lp.col("x")] == pytest.approx(4.0)
    assert sol.values[lp.col("y")] == pytest.approx(0.0, abs=1e-9)


def test_degenerate_vertex_terminates():
    # Many redundant rows through the same vertex.
    lp = LinearProgram("degen")
    x = lp.add_col("x", 0.0, INF, 1.0)
    y = lp.add_col("y", 0.0, INF, 1.0)
    for i in range(30):
        lp.add_row(f"r{i}", "G", 1.0, [(x, 1.0 + i * 1e-9), (y, 1.0)])
    sol = solve(lp.freeze())
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1.0, rel=1e-6)


def test_determinism_identical_runs():
    rng = np.random.default_rng(42)
    lp = LinearProgram("det")
    for j in range(40):
        lp.add_col(f"x{j}", 0.0, float(rng.uniform(1, 5)), float(rng.normal()))
    for i in range(25):
        entries = [(j, float(rng.normal())) for j in range(40) if rng.random() < 0.4]
        lp.add_row(f"r{i}", str(rng.choice(["L", "G", "E"])), float(rng.normal()), entries)
    lp.freeze()
    a = solve(lp)
    b = solve(lp)
    assert a.status == b.status
    if a.status == "optimal":
        assert a.objective == b.objective  # bitwise, not approx
        np.testing.assert_array_equal(a.values, b.values)
        assert a.iterations == b.iterations


@pytest.mark.parametrize("seed", range(60))
def test_random_lps_match_highs(seed):
    lp = random_lp(seed)
    sol = solve(lp)
    assert sol.status in ("optimal", "infeasible", "unbounded")
    if sol.status == "optimal":
        assert verify(lp, sol).within(1e-7)
        assert sol.max_residual <= 1e-7
        expected = float(np.dot(lp.obj, sol.values)) + lp.offset
        assert sol.objective == pytest.approx(expected, rel=1e-12, abs=1e-12)
    ref_status, ref_objective = _reference_solve(lp)
    assert sol.status == ref_status, (sol.status, ref_status)
    if sol.status == "optimal":
        assert sol.objective == pytest.approx(ref_objective, rel=1e-7, abs=1e-7)


def _reference_solve(lp):
    """Status and objective of ``lp`` from a dense interior-point HiGHS solve."""
    dense = lp.matrix().toarray()
    senses = np.array(lp.senses)
    rhs = np.array(lp.rhs)
    sign = np.where(senses == "G", -1.0, 1.0)
    ub = senses != "E"
    eq = senses == "E"
    res = optimize.linprog(
        c=np.array(lp.obj),
        A_ub=(dense * sign[:, None])[ub] if ub.any() else None,
        b_ub=(rhs * sign)[ub] if ub.any() else None,
        A_eq=dense[eq] if eq.any() else None,
        b_eq=rhs[eq] if eq.any() else None,
        bounds=list(zip(lp.lo, lp.hi)),
        method="highs-ipm",
    )
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}[res.status]
    objective = float(res.fun) + lp.offset if status == "optimal" else None
    return status, objective


def test_empty_constraint_matrix_boxed_minimization():
    lp = LinearProgram("boxed")
    lp.add_col("a", 1.0, 2.0, 3.0)
    lp.add_col("b", -1.0, 5.0, -2.0)
    sol = solve(lp.freeze())
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(3.0 * 1.0 - 2.0 * 5.0)
