"""MPS export/import: canonical snippet, round trips, mangling, name lookup."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from desk import random_desk_instance
from heatgrid.dataset import build_synth_dataset
from heatgrid.lp import LinearProgram, LpError
from heatgrid.model import build_model
from heatgrid.mps import MpsError, export_mps, import_mps, mangle_names
from heatgrid.scenarios import make_instance, specs_for_selector
from heatgrid.solver import solve, verify

INF = float("inf")


def test_minimal_snippet_structure(tmp_path):
    lp = LinearProgram("mini")
    lp.add_named_cols(["x"], [1.0], [INF], [1.0])
    lp.add_named_rows(["atleast"], ["G"], [1.0], ([0], [0], [1.0]))
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
    lp.add_named_cols(["x"], [0.0], [INF], [2.0])
    lp.add_named_rows(["r"], ["G"], [3.0], ([0], [0], [1.0]))
    lp.offset = 123.456
    lp.freeze()
    lp2 = import_mps(export_mps(lp, tmp_path / "off.mps"))
    assert lp2.offset == pytest.approx(123.456, rel=1e-15)
    a = solve(lp)
    b = solve(lp2)
    assert a.objective == pytest.approx(b.objective, rel=1e-12)


def test_sidecar_restores_original_names(tmp_path):
    lp = LinearProgram("names")
    lp.add_named_cols(["gen[DE,ccgt,0]", "gen[DE,ccgt,1]"], [0.0, 0.0], [4.0, 4.0], [1.5, 1.5])
    lp.add_named_rows(["bal[DE,0]", "bal[DE,1]"], ["E", "E"], [2.0, 1.0], ([0, 1], [0, 1], [1.0, 1.0]))
    lp.freeze()
    lp2 = import_mps(export_mps(lp, tmp_path / "n.mps"))
    assert lp2.col_names == lp.col_names
    assert lp2.row_names == lp.row_names
    # Each restored name resolves to its own column; a name never exported raises.
    assert [lp2.col(name) for name in lp2.col_names] == list(range(lp2.num_cols))
    with pytest.raises(LpError, match="unknown column"):
        lp2.col("gen[DE,ccgt,2]")


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
    lp.add_named_cols(["x", "cap[DE,nuclear]"], [0.0, 4.5], [INF, 4.5], [1.0, 0.0])
    lp.add_named_rows(["r"], ["G"], [1.0], ([0], [0], [1.0]))
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


# -- import behaviour, pinned -------------------------------------------------


def _import_text(tmp_path, text):
    path = tmp_path / "t.mps"
    path.write_text(text)
    return import_mps(path)


def _mps(columns, bounds="", rows=" G  r\n", rhs="", ranges=""):
    return (
        f"NAME          t\nROWS\n N  OBJ\n{rows}COLUMNS\n{columns}"
        f"RHS\n{rhs}RANGES\n{ranges}BOUNDS\n{bounds}ENDATA\n"
    )


def _one_entry_each(names):
    return "".join(f"    {n:<9} r         1\n" for n in names)


def _bounds(lp):
    return dict(zip(lp.col_names, zip(lp.lo, lp.hi)))


def test_import_bound_types_mi_pl_fr_fx(tmp_path):
    bounds = """ MI BND       a
 UP BND       a         5
 UP BND       b         4
 PL BND       b
 FR BND       c
 FX BND       d         2.5
 LO BND       e         -3
 MI BND       e
 LO BND       f         -1
 UP BND       f         0
"""
    lp = _import_text(tmp_path, _mps(_one_entry_each("abcdefg"), bounds))
    assert _bounds(lp) == {
        "a": (-INF, 5.0),
        "b": (0.0, INF),
        "c": (-INF, INF),
        "d": (2.5, 2.5),
        "e": (-INF, INF),
        "f": (-1.0, 0.0),
        "g": (0.0, INF),  # no bound line: the MPS default
    }


def test_import_negative_upper_bound_without_lower_frees_the_lower_bound(tmp_path):
    bounds = """ UP BND       a         -2
 LO BND       b         -10
 UP BND       b         -2
 UP BND       c         -2
 LO BND       c         -5
 MI BND       d
 UP BND       d         -2
 FX BND       e         3
 UP BND       e         -1
"""
    lp = _import_text(tmp_path, _mps(_one_entry_each("abcde"), bounds))
    assert _bounds(lp) == {
        "a": (-INF, -2.0),
        "b": (-10.0, -2.0),  # an explicit LO keeps it, before the UP
        "c": (-5.0, -2.0),  # ... or after it
        "d": (-INF, -2.0),
        "e": (-INF, -1.0),  # FX is not LO: the negative UP frees it
    }


@pytest.mark.parametrize(
    "text, message",
    [
        (_mps(_one_entry_each("a"), " BV BND       a\n"), "binary"),
        (_mps(_one_entry_each("a"), " XX BND       a         1\n"), "unknown bound type"),
        (_mps(_one_entry_each("a"), rows=" Q  r\n"), "unknown row sense"),
        (_mps("    a         nosuch    1\n"), "unknown row"),
        (_mps("    a         r\n"), "bad COLUMNS line"),
        (_mps("    a         r         1          OBJ\n"), "bad COLUMNS line"),
        (_mps(_one_entry_each("a"), rhs="    RHS       r\n"), "bad RHS line"),
    ],
    ids=["BV", "unknown-bound", "unknown-sense", "unknown-row", "short-line", "long-line", "rhs"],
)
def test_import_rejects_malformed_input(tmp_path, text, message):
    with pytest.raises(MpsError, match=message):
        _import_text(tmp_path, text)


def test_import_non_contiguous_column_and_repeated_entries(tmp_path):
    columns = """    x         OBJ       1
    x         r         1
    y         r         2
    x         OBJ       2
    x         s         3
    x         s         0.5
    y         OBJ       -1
"""
    lp = _import_text(tmp_path, _mps(columns, rows=" G  r\n L  s\n"))
    assert lp.col_names == ["x", "y"]  # order of first appearance
    assert lp.obj == [3.0, -1.0]  # objective entries are summed
    assert lp.row_names == ["r", "s"]
    assert lp.rows == [[(0, 1.0), (1, 2.0)], [(0, 3.5)]]  # so are repeated matrix entries


def test_import_ranges_on_every_sense(tmp_path):
    rows = " E  eneg\n E  epos\n L  lim\n G  atl\n E  plain\n"
    columns = "".join(f"    x         {r:<9} 1\n" for r in ("eneg", "epos", "lim", "atl", "plain"))
    rhs = """    RHS       eneg      5
    RHS       epos      5
    RHS       lim       5
    RHS       atl       5
    RHS       plain     5
"""
    ranges = """    RNG       eneg      -2
    RNG       epos      2
    RNG       lim       -2
    RNG       atl       -2
"""
    lp = _import_text(tmp_path, _mps(columns, rows=rows, rhs=rhs, ranges=ranges))
    got = list(zip(lp.row_names, lp.senses, lp.rhs))
    assert got == [
        ("eneg#lo", "G", 3.0), ("eneg#hi", "L", 5.0),  # E, negative range: [b + r, b]
        ("epos#lo", "G", 5.0), ("epos#hi", "L", 7.0),  # E, positive range: [b, b + r]
        ("lim#lo", "G", 3.0), ("lim#hi", "L", 5.0),  # L: [b - |r|, b]
        ("atl#lo", "G", 5.0), ("atl#hi", "L", 7.0),  # G: [b, b + |r|]
        ("plain", "E", 5.0),
    ]
    assert all(entries == [(0, 1.0)] for entries in lp.rows)


def test_round_trip_keeps_verify_families(tmp_path):
    # Imported rows are filed under the family of their original name, so
    # the residual report reads as it does on the built program.
    dataset = build_synth_dataset(3, ["AT", "DE"], [2009], 24)
    spec = specs_for_selector("base", [2009], 24)[2]  # heat pumps and a tank: every row family
    lp = build_model(make_instance(dataset, spec, 2009))
    back = import_mps(export_mps(lp, tmp_path / "cell.mps"))
    values = solve(lp).values
    want, got = verify(lp, values), verify(back, values)
    assert {"balance", "availability", "storage", "heat"} <= set(want.families)
    assert list(got.families) == list(want.families)
    for family, residual in want.families.items():
        assert got.families[family].max_violation == residual.max_violation, family
        assert got.families[family].rows == residual.rows, family


def test_one_hour_window_round_trips_its_explicit_zeros(tmp_path):
    # A 1-hour window cancels every cyclic storage self-term to a stored
    # zero; export writes those zeros and import must keep them.
    dataset = build_synth_dataset(7, ["AT", "DE", "FR"], [2009], 24)
    spec = next(s for s in specs_for_selector("base", [2009], 1) if s.name == "base-hp25-ep2")
    lp = build_model(make_instance(dataset, spec, 2009))
    back = import_mps(export_mps(lp, tmp_path / "hour.mps"))
    want, got = lp.matrix(), back.matrix()
    assert (want.nnz, got.nnz) == (271, 271)
    assert (want.data == 0.0).any()
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.indices, want.indices)
    np.testing.assert_array_equal(got.data, want.data)


def test_named_rows_keep_zeros_and_keyed_rows_drop_them():
    lp = LinearProgram("zeros")
    x, y = lp.add_named_cols(["x", "y"], [0.0, 0.0], [INF, INF], [0.0, 0.0])
    lp.add_named_rows(["named"], ["G"], [1.0], ([0, 0], [x, y], [0.0, 1.0]))
    cols = lp.add_cols(("DE",), {"gen": (0.0, INF, 1.0)}, hours=2)["gen"]
    lp.add_rows(("DE",), {"bal": ("E", 1.0, [(cols, 0.0), (cols, [1.0, 2.0]), (x, [1.0, -1.0])])}, hours=2)
    lp.add_rows(("DE",), {"cyc": ("E", 0.0, [(cols[0], 1.0), (cols[0], -1.0)])})
    lp.freeze()
    assert lp.rows == [[(0, 0.0), (1, 1.0)], [(0, 1.0), (2, 1.0)], [(0, -1.0), (3, 2.0)], [(2, 0.0)]]


_FINITE = st.floats(-1e6, 1e6, allow_nan=False).filter(lambda v: v != 0.0)


@st.composite
def _random_lps(draw):
    """Small LPs whose long names collide after mangling, with every bound kind."""
    lp = LinearProgram(draw(st.sampled_from(["rand", "x" * 70])))
    heads = ["gen[DE,ccgt,", "gen[DE,cc", "bal[DE,", "x", "[", "é"]
    n_cols = draw(st.integers(1, 12))
    names, bounds = [], []  # bounds: (lo, hi, obj) per column
    for j in range(n_cols):
        lo = draw(st.sampled_from([0.0, -INF, -2.5, 1.0, 0.1]))
        hi = draw(st.sampled_from([INF, 0.0, 3.0, 1e6, lo if lo != -INF else 7.0]))
        if lo > hi:
            lo, hi = hi, lo
        bounds.append((lo, hi, draw(st.one_of(st.just(0.0), _FINITE))))
        names.append(f"{draw(st.sampled_from(heads))}{j}]")
    lp.add_named_cols(names, *zip(*bounds))
    names, senses, rhs, entries = [], [], [], ([], [], [])
    for i in range(draw(st.integers(0, 8))):
        cols = draw(st.lists(st.integers(0, n_cols - 1), max_size=4, unique=True))  # some rows stay empty
        for c in cols:
            entries[0].append(i)
            entries[1].append(c)
            entries[2].append(draw(_FINITE))
        senses.append(draw(st.sampled_from("LEG")))
        rhs.append(draw(st.one_of(st.just(0.0), _FINITE)))
        names.append(f"{draw(st.sampled_from(heads))}{i}]")
    lp.add_named_rows(names, senses, rhs, entries)
    lp.offset = draw(st.one_of(st.just(0.0), _FINITE))
    return lp.freeze()


@given(_random_lps())
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_random_lps_survive_export_and_import(tmp_path, lp):
    back = import_mps(export_mps(lp, tmp_path / "rand.mps"))
    assert back.name == lp.name[:60]
    assert (back.col_names, back.lo, back.hi, back.obj) == (lp.col_names, lp.lo, lp.hi, lp.obj)
    assert (back.row_names, back.senses, back.rhs, back.rows) == (lp.row_names, lp.senses, lp.rhs, lp.rows)
    assert back.offset == lp.offset


def _reference_mps_text(lp):
    """The MPS text as the one-line-at-a-time writer composed it (kept to pin the format)."""

    def line(f1, f2="", f3="", f4=""):
        return (" " + f1.ljust(2) + " " + f2.ljust(9) + " " + f3.ljust(9) + " " + f4).rstrip()

    def num(x):
        return "%.17g" % x

    row_map = mangle_names(lp.row_names, reserved=("OBJ",))
    col_map = mangle_names(lp.col_names)
    row_short = [row_map[n] for n in lp.row_names]
    lines = [f"NAME          {lp.name[:60]}", "ROWS", line("N", "OBJ")]
    lines += [line(sense, short) for short, sense in zip(row_short, lp.senses)]
    lines.append("COLUMNS")
    csc = lp.matrix().tocsc()
    for c, name in enumerate(lp.col_names):
        start, end = csc.indptr[c], csc.indptr[c + 1]
        if lp.obj[c] != 0.0 or start == end:
            lines.append(line("", col_map[name], "OBJ", num(lp.obj[c])))
        for r, coef in zip(csc.indices[start:end].tolist(), csc.data[start:end].tolist()):
            lines.append(line("", col_map[name], row_short[r], num(coef)))
    lines.append("RHS")
    if lp.offset != 0.0:
        lines.append(line("", "RHS", "OBJ", num(-lp.offset)))
    lines += [line("", "RHS", s, num(v)) for s, v in zip(row_short, lp.rhs) if v != 0.0]
    lines += ["RANGES", "BOUNDS"]
    for name, lo, hi in zip(lp.col_names, lp.lo, lp.hi):
        short = col_map[name]
        if lo == 0.0 and hi == INF:
            continue
        if lo == hi:
            lines.append(line("FX", "BND", short, num(lo)))
            continue
        if lo == -INF and hi == INF:
            lines.append(line("FR", "BND", short))
            continue
        if lo == -INF:
            lines.append(line("MI", "BND", short))
        elif lo != 0.0:
            lines.append(line("LO", "BND", short, num(lo)))
        if hi != INF:
            lines.append(line("UP", "BND", short, num(hi)))
    lines.append("ENDATA")
    sidecar = {
        "rows": {short: name for name, short in row_map.items()},
        "cols": {short: name for name, short in col_map.items()},
        "objective_row": "OBJ",
    }
    return "\n".join(lines) + "\n", json.dumps(sidecar, indent=1, sort_keys=True)


def _assert_reference_bytes(lp, path):
    export_mps(lp, path)
    text, sidecar = _reference_mps_text(lp)
    assert path.read_text() == text
    assert (path.parent / (path.name + ".names.json")).read_text() == sidecar


def test_export_matches_reference_format_on_a_cell(tmp_path):
    dataset = build_synth_dataset(3, ["AT", "DE"], [2009], 24)
    for spec in specs_for_selector("base", [2009], 24):
        _assert_reference_bytes(build_model(make_instance(dataset, spec, 2009)), tmp_path / "cell.mps")


def test_export_matches_reference_format_on_odd_names(tmp_path):
    lp = LinearProgram('quote " and \\ and é')
    names = ['a"b', "c\\d", "é[1]", "tab\tx", "\x01", "long name number %d" % 0]
    lo = [-INF if j % 2 else -0.0 for j in range(len(names))]
    hi = [-0.0 if j % 3 == 0 else INF for j in range(len(names))]
    lp.add_named_cols(names, lo, hi, [0.0] * len(names))
    lp.freeze()
    _assert_reference_bytes(lp, tmp_path / "odd.mps")  # no rows: an empty map
    assert '"rows": {}' in (tmp_path / "odd.mps.names.json").read_text()


@given(_random_lps())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_random_lps_export_in_reference_format(tmp_path, lp):
    _assert_reference_bytes(lp, tmp_path / "rand.mps")
