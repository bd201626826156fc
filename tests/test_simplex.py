"""The solve path (HiGHS dual simplex): statuses, determinism, random LPs.

Random LPs are checked two ways: each optimum must verify and carry the
objective ``c·x + offset``, and its status and objective must match a
reference solve of the same LP written out densely and handed to HiGHS's
interior-point method.
"""

import numpy as np
import pytest
from scipy import optimize

from desk import random_lp, random_rows
from heatgrid.lp import LinearProgram
from heatgrid.solver import solve, verify

INF = float("inf")


def lp_min_x_ge_1():
    lp = LinearProgram("t")
    lp.add_named_cols(["x"], [0.0], [INF], [1.0])
    lp.add_named_rows(["r"], ["G"], [1.0], ([0], [0], [1.0]))
    return lp.freeze()


def test_minimal_example():
    sol = solve(lp_min_x_ge_1())
    assert sol.status == "optimal"
    assert sol.backend == "highs"
    assert sol.objective == pytest.approx(1.0)
    assert sol.values[sol.lp.col("x")] == pytest.approx(1.0)


def test_contradictory_bounds_infeasible():
    lp = LinearProgram("t")
    lp.add_named_cols(["x"], [0.0], [1.0], [1.0])
    lp.add_named_rows(["r"], ["G"], [5.0], ([0], [0], [1.0]))
    sol = solve(lp.freeze())
    assert sol.status == "infeasible"
    assert sol.objective is None


def test_unbounded():
    lp = LinearProgram("t")
    lp.add_named_cols(["x"], [-INF], [INF], [1.0])
    lp.add_named_rows(["r"], ["L"], [3.0], ([0], [0], [1.0]))
    assert solve(lp.freeze()).status == "unbounded"


def test_equality_and_free_variables():
    lp = LinearProgram("t")
    lp.add_named_cols(["x", "y"], [-INF, 0.0], [INF, INF], [2.0, 3.0])
    lp.add_named_rows(["r1", "r2"], ["E", "G"], [4.0, -2.0], ([0, 0, 1, 1], [0, 1, 0, 1], [1.0, 1.0, 1.0, -1.0]))
    sol = solve(lp.freeze())
    assert sol.status == "optimal"
    # x = 4 - y turns the objective into 8 + y, so y = 0 and x = 4.
    assert sol.objective == pytest.approx(8.0, rel=1e-9)
    assert sol.values[lp.col("x")] == pytest.approx(4.0)
    assert sol.values[lp.col("y")] == pytest.approx(0.0, abs=1e-9)


def test_degenerate_vertex_terminates():
    # Many redundant rows through the same vertex.
    lp = LinearProgram("degen")
    lp.add_named_cols(["x", "y"], [0.0, 0.0], [INF, INF], [1.0, 1.0])
    rows = np.arange(30)
    coefs = np.stack([1.0 + rows * 1e-9, np.ones(30)], axis=1)
    lp.add_named_rows(
        [f"r{i}" for i in rows], ["G"] * 30, [1.0] * 30,
        (np.repeat(rows, 2), np.tile([0, 1], 30), coefs.ravel()),
    )
    sol = solve(lp.freeze())
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1.0, rel=1e-6)


def test_determinism_identical_runs():
    rng = np.random.default_rng(42)
    lp = LinearProgram("det")
    bounds = [(float(rng.uniform(1, 5)), float(rng.normal())) for _ in range(40)]
    hi, obj = zip(*bounds)
    lp.add_named_cols([f"x{j}" for j in range(40)], [0.0] * 40, hi, obj)
    lp.add_named_rows([f"r{i}" for i in range(25)], *random_rows(rng, 25, 40, 0.4, "LGE"))
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
    lp.add_named_cols(["a", "b"], [1.0, -1.0], [2.0, 5.0], [3.0, -2.0])
    sol = solve(lp.freeze())
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(3.0 * 1.0 - 2.0 * 5.0)
