"""MPS export/import: canonical snippet, round trips, mangling, solutions."""

import json

import numpy as np
import pytest

from desk import random_desk_instance
from heatgrid.lp import LinearProgram
from heatgrid.model import build_model
from heatgrid.mps import (
    export_mps,
    import_mps,
    mangle_names,
    read_solution_csv,
    write_solution_csv,
)
from heatgrid.solver import solve, verify

INF = float("inf")


def test_minimal_snippet_structure(tmp_path):
    lp = LinearProgram("mini")
    x = lp.add_col("x", 1.0, INF, 1.0)
    lp.add_row("atleast", "G", 1.0, [(x, 1.0)])
    lp.freeze()
    path = export_mps(lp, tmp_path / "mini.mps")
    text = path.read_text()
    lines = [ln for ln in text.splitlines()]
    assert lines[0].startswith("NAME")
    for section in ("ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS", "ENDATA"):
        assert any(ln == section for ln in lines), section
    assert " N  OBJ" in text
    assert " G  atleast" in text
    assert " LO BND" in text  # x >= 1 needs an explicit lower bound
    # Sidecar is bijective.
    sidecar = json.loads((tmp_path / "mini.mps.names.json").read_text())
    assert len(set(sidecar["cols"].values())) == len(sidecar["cols"])
    assert len(set(sidecar["rows"].values())) == len(sidecar["rows"])


def test_mangling_truncates_and_suffixes_deterministically():
    names = [f"gen[DE,ccgt,{h}]" for h in range(40)]
    mapping = mangle_names(names)
    shorts = list(mapping.values())
    assert all(len(s) <= 8 for s in shorts)
    assert len(set(shorts)) == len(shorts)  # bijective
    # Truncation collides on purpose here; suffixing must be stable.
    again = mangle_names(names)
    assert again == mapping


def test_offset_round_trips_via_objective_rhs(tmp_path):
    lp = LinearProgram("off")
    x = lp.add_col("x", 0.0, INF, 2.0)
    lp.add_row("r", "G", 3.0, [(x, 1.0)])
    lp.offset = 123.456
    lp.freeze()
    lp2 = import_mps(export_mps(lp, tmp_path / "off.mps"))
    assert lp2.offset == pytest.approx(123.456, rel=1e-15)
    a = solve(lp)
    b = solve(lp2)
    assert a.objective == pytest.approx(b.objective, rel=1e-12)


def test_sidecar_restores_original_names(tmp_path):
    lp = LinearProgram("names")
    lp.add_col("gen[DE,ccgt,0]", 0.0, 4.0, 1.5)
    lp.add_col("gen[DE,ccgt,1]", 0.0, 4.0, 1.5)
    lp.add_row("bal[DE,0]", "E", 2.0, [("gen[DE,ccgt,0]", 1.0)])
    lp.add_row("bal[DE,1]", "E", 1.0, [("gen[DE,ccgt,1]", 1.0)])
    lp.freeze()
    lp2 = import_mps(export_mps(lp, tmp_path / "n.mps"))
    assert lp2.col_names == lp.col_names
    assert lp2.row_names == lp.row_names


@pytest.mark.parametrize("seed", [100, 104, 109, 113, 118])
def test_desk_instance_round_trip_objective(tmp_path, seed):
    inst = random_desk_instance(seed)
    lp = build_model(inst)
    direct = solve(lp)
    lp2 = import_mps(export_mps(lp, tmp_path / f"desk{seed}.mps"))
    again = solve(lp2)
    assert again.status == direct.status == "optimal"
    assert again.objective == pytest.approx(direct.objective, rel=1e-9)


def test_fixed_column_without_entries_round_trips(tmp_path):
    # A pinned column that appears in no row and costs nothing must still
    # come back, with its bound.
    lp = LinearProgram("pinned")
    x = lp.add_col("x", 0.0, INF, 1.0)
    lp.add_col("cap[DE,nuclear]", 4.5, 4.5, 0.0)
    lp.add_row("r", "G", 1.0, [(x, 1.0)])
    lp.freeze()
    lp2 = import_mps(export_mps(lp, tmp_path / "pinned.mps"))
    assert lp2.col_names == lp.col_names
    assert (lp2.lo, lp2.hi, lp2.obj) == (lp.lo, lp.hi, lp.obj)


def test_ranges_section_parses_into_two_sided_rows(tmp_path):
    text = """NAME          ranged
ROWS
 N  OBJ
 L  lim
COLUMNS
    x         OBJ       1
    x         lim       1
RHS
    RHS       lim       5
RANGES
    RNG       lim       2
BOUNDS
 UP BND       x         10
ENDATA
"""
    path = tmp_path / "r.mps"
    path.write_text(text)
    lp = import_mps(path)
    # L row with rhs 5 and range 2 -> 3 <= x <= 5; minimizing x gives 3.
    sol = solve(lp)
    assert sol.objective == pytest.approx(3.0)


def test_solution_csv_round_trip(tmp_path):
    inst = random_desk_instance(101)
    lp = build_model(inst)
    sol = solve(lp)
    path = write_solution_csv(lp, sol.values, tmp_path / "sol.csv")
    values = read_solution_csv(lp, path)
    np.testing.assert_array_equal(values, sol.values)
    # An externally produced solution can be verified without re-solving.
    report = verify(lp, values)
    assert report.max_violation <= 1e-7


def test_two_pairs_per_line_and_comments_parse(tmp_path):
    # Classic fixed-format files pack two (row, value) pairs per data line
    # and allow '*' comment lines.
    text = """* comment line
NAME          packed
ROWS
 N  COST
 G  r1
 L  r2
COLUMNS
    x         COST      2.0        r1        1.0
    x         r2        1.0
    y         COST      3.0        r1        1.0
RHS
    RHS       r1        4.0        r2        10.0
BOUNDS
ENDATA
"""
    path = tmp_path / "packed.mps"
    path.write_text(text)
    lp = import_mps(path)
    assert lp.num_cols == 2 and lp.num_rows == 2
    sol = solve(lp)
    # min 2x+3y s.t. x+y >= 4, x <= 10 -> x=4, y=0.
    assert sol.objective == pytest.approx(8.0)


def _mangle_restarting(names, reserved=()):
    """The collision search as first written: restart at suffix 0 for every name."""
    import re

    def base36(k):
        s = ""
        while True:
            s = "0123456789abcdefghijklmnopqrstuvwxyz"[k % 36] + s
            k //= 36
            if k == 0:
                return s

    used = set(reserved)
    out = {}
    for name in names:
        base = re.sub(r"[^A-Za-z0-9]", "_", name)[:8] or "X"
        short = base
        k = 0
        while short in used:
            suffix = base36(k)
            short = base[: 8 - len(suffix)] + suffix
            k += 1
        used.add(short)
        out[name] = short
    return out


def test_mangle_names_matches_restarting_search():
    # Long same-base runs (past the one- and two-digit suffixes), bases that
    # end in their own suffix ("gen_DE_0"), names that collide with another
    # base's suffixed forms, the reserved OBJ, short bases and empty names.
    names = [f"gen[DE,ccgt,{h}]" for h in range(1400)]
    names += ["gen_DE_0", "gen_DE_1", "gen_DE_z", "gen_DEz", "gen_DE10", "gen_DE_2x"]
    names += [f"gen[DE,lignite,{h}]" for h in range(50)]
    names += ["OBJ", "OBJ[1]", "OBJ0", "obj", "O", "O0", "O1", "O[2]", "O__"]
    names += ["", "[]", "!", "X", "X0", "X1", "[", "é", "ée"]
    names += [f"bal[{c},{h}]" for c in ("AT", "DE") for h in range(40)]
    names += ["bal_AT_0", "bal_AT_1", "bal_AT_2", "bal_AT0", "bal_A10"]
    names += [f"r{i}" for i in range(40)] + ["r", "r0_", "r1_"]
    for reserved in ((), ("OBJ",), ("OBJ", "gen_DE_0", "X")):
        got = mangle_names(names, reserved=reserved)
        assert got == _mangle_restarting(names, reserved=reserved)
        assert len(set(got.values()) | set(reserved)) == len(got) + len(reserved)
