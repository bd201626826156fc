"""Residual verification: planted faults flag the right family."""

import numpy as np
import pytest

from desk import heat_block, instance, random_desk_instance, random_lp, tech
from heatgrid.lp import LinearProgram
from heatgrid.model import build_model
from heatgrid.solver import CONSTRAINT_FAMILY, FamilyResidual, _row_violations, solve, verify

INF = float("inf")


@pytest.fixture(scope="module")
def solved():
    hb = heat_block("DE", 0.25, 2.0, [1600.0, 300.0, 1900.0, 500.0], [2.0, 2.4, 1.9, 2.3])
    inst = instance(
        "verif",
        loads_mw={"DE": np.array([1000.0, 400.0, 1500.0, 700.0])},
        techs={"ccgt": tech("ccgt", varcost_fuel=26.0, efficiency=0.61, carbon=0.2)},
        gen_bounds={("DE", "ccgt"): (0.0, INF)},
        heat=hb,
    )
    lp = build_model(inst)
    sol = solve(lp)
    assert sol.status == "optimal"
    return lp, sol


def test_solver_output_is_clean(solved):
    lp, sol = solved
    report = verify(lp, sol)
    assert report.max_violation <= 1e-6
    assert set(report.families) >= {"balance", "availability", "heat", "bounds"}


def test_perturbing_generation_flags_balance(solved):
    lp, sol = solved
    values = sol.values.copy()
    values[lp.col("gen[DE,ccgt,0]")] += 1.0
    report = verify(lp, values)
    assert report.families["balance"].max_violation == pytest.approx(1.0)
    assert max(report.families, key=lambda f: report.families[f].max_violation) == "balance"


def test_perturbing_tank_level_flags_heat(solved):
    lp, sol = solved
    name = next(n for n in lp.col_names if n.startswith("hl["))
    values = sol.values.copy()
    values[lp.col(name)] += 0.5
    report = verify(lp, values)
    assert report.families["heat"].max_violation >= 0.5 - 1e-9


def test_exceeding_capacity_flags_availability(solved):
    lp, sol = solved
    values = sol.values.copy()
    values[lp.col("cap[DE,ccgt]")] -= 0.2
    report = verify(lp, values)
    assert report.families["availability"].max_violation >= 0.2 - 1e-9


def test_bound_violation_flags_bounds(solved):
    lp, sol = solved
    name = next(n for n in lp.col_names if n.startswith("ho["))
    values = sol.values.copy()
    values[lp.col(name)] += 2.0  # ho is pinned to its target
    report = verify(lp, values)
    assert report.families["bounds"].max_violation >= 2.0 - 1e-9


def test_empty_lp_yields_empty_report():
    report = verify(LinearProgram("empty").freeze(), np.zeros(0))
    assert report.families == {}
    assert report.max_violation == 0.0
    assert max(report.families, default=None) is None


def test_rows_of_an_lp_without_columns_are_checked():
    lp = LinearProgram("rows-only")
    lp.add_rows(("DE",), {"bal": ("G", 1.0, [])})  # 0 >= 1
    report = verify(lp.freeze(), np.zeros(0))
    assert set(report.families) == {"balance"}  # no columns, so no bounds family
    assert report.families["balance"].max_violation == 1.0 and not report.within(1e-9)


def test_a_nan_activity_fails_the_report(solved):
    lp, sol = solved
    name = next(n for n in lp.col_names if n.startswith("hl["))
    values = sol.values.copy()
    values[lp.col(name)] = np.nan  # a NaN in the heat and bounds families, none in the first family
    report = verify(lp, values)
    assert np.isnan(report.max_violation)
    assert not report.within(1e-6)


def sorted_report(lp, values) -> list:
    """verify()'s report as it was computed before: each family's rows joined and sorted."""
    viol = _row_violations(lp, values)
    groups: dict = {}
    for name, fam in lp.row_families.items():
        groups.setdefault(CONSTRAINT_FAMILY.get(name, "other"), []).append(fam.index.ravel())
    members = {family: np.sort(np.concatenate(parts)) for family, parts in groups.items()}
    out = [(family, FamilyResidual.of(viol[rows])) for family, rows in sorted(members.items(), key=lambda kv: kv[1][0])]
    if lp.num_cols:
        out.append(("bounds", FamilyResidual.of(np.maximum(np.maximum(lp.col_lo - values, values - lp.col_hi), 0.0))))
    return out


def bits(families) -> list:
    return [(name, f.max_violation.hex(), f.mean_violation.hex(), f.rows) for name, f in families]


@pytest.mark.parametrize("seed", range(10))
def test_report_matches_the_sorted_reference(seed):
    rng = np.random.default_rng(seed)
    for lp in (random_lp(seed), build_model(random_desk_instance(seed))):
        values = rng.uniform(-1.0, 3.0, lp.num_cols)
        assert bits(verify(lp, values).families.items()) == bits(sorted_report(lp, values))


def test_families_follow_their_first_row():
    lp = LinearProgram("mixed")
    x = lp.add_named_cols(["x", "y"], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0])
    lp.add_named_rows(["hdyn[a]", "r"], ["L", "L"], [-1.0, -2.0], ([0, 1], [0, 1], [1.0, 1.0]))
    lp.add_rows(("DE",), {"bal": ("E", 3.0, [(x, 1.0)]), "hcop": ("G", 4.0, [(x[0], 1.0)])}, 2)
    lp.add_named_rows(["sdyn[b]", "gcap[c]"], ["E", "E"], [5.0, 6.0], ([0, 1], [0, 1], [1.0, 1.0]))
    values = np.array([0.5, 0.25])
    report = verify(lp.freeze(), values)
    assert list(report.families) == ["heat", "other", "balance", "storage", "availability", "bounds"]
    assert (report.families["heat"].rows, report.families["balance"].rows) == (3, 2)
    assert bits(report.families.items()) == bits(sorted_report(lp, values))
