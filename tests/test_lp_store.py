"""The row-block store: its CSR against the COO construction it replaced, its checks, and
the two stages of an LP: built by appending, then frozen and only read.

``coo_reference`` keeps the former store as the reference: it records, for
every ``add_rows`` / ``add_named_rows`` call, the (row, column, coefficient)
triplets that store appended, and ``reference_matrix`` converts them with
``sparse.csr_matrix((vals, (rows, cols)))`` as it did. The row-block CSR
must equal it bit for bit, in its arrays and their dtypes.
"""

import weakref

import numpy as np
import pytest
from scipy import sparse

from desk import random_desk_instance
from heatgrid.dataset import build_synth_dataset
from heatgrid.lp import LinearProgram, LpError
from heatgrid.model import build_model
from heatgrid.scenarios import make_instance, specs_for_selector


def _coo_rows(start: int, rows: dict, hours) -> list:
    """The triplets the COO store appended for one ``add_rows`` call at row `start`."""
    size = 1 if hours is None else hours
    index = np.arange(start, start + size * len(rows)).reshape(size, -1)
    out = []
    for j, (_, _, terms) in enumerate(rows.values()):
        for cols, coefs in terms:
            cols = np.asarray(cols, dtype=np.int64)
            coefs = np.asarray(coefs, dtype=float)
            if not cols.size:
                continue
            count = max(size, cols.size, coefs.size)
            r, c, v = np.empty(count, np.int64), np.empty(count, np.int64), np.empty(count)
            r[:], c[:], v[:] = index[:, j], cols, coefs
            keep = v != 0.0
            out.append((r[keep], c[keep], v[keep]))
    return out


@pytest.fixture
def coo_reference(monkeypatch):
    """LP -> the triplets the COO store held, recorded while the LP is built."""
    triplets: dict = {}
    add_rows, add_named_rows = LinearProgram.add_rows, LinearProgram.add_named_rows

    def recording_rows(self, key, rows, hours=None):
        triplets.setdefault(self, []).extend(_coo_rows(self.num_rows, rows, hours))
        return add_rows(self, key, rows, hours)

    def recording_named_rows(self, names, senses, rhs, entries=((), (), ())):
        rows, cols, coefs = entries
        rows = np.array(rows, dtype=np.int64) + self.num_rows
        triplets.setdefault(self, []).append((rows, np.array(cols, dtype=np.int64), np.array(coefs, dtype=float)))
        return add_named_rows(self, names, senses, rhs, entries)

    monkeypatch.setattr(LinearProgram, "add_rows", recording_rows)
    monkeypatch.setattr(LinearProgram, "add_named_rows", recording_named_rows)
    return triplets


def reference_matrix(lp: LinearProgram, triplets: list) -> sparse.csr_matrix:
    empty = (np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0))
    rows, cols, vals = (np.concatenate(parts) for parts in zip(empty, *triplets))
    return sparse.csr_matrix((vals, (rows, cols)), shape=(lp.num_rows, lp.num_cols))


def assert_same_csr(lp: LinearProgram, triplets: list) -> None:
    got, want = lp.matrix(), reference_matrix(lp, triplets)
    assert got.shape == want.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name
    assert got.has_canonical_format and want.has_canonical_format


@pytest.mark.parametrize("seed", range(10))
def test_desk_instances(coo_reference, seed):
    lp = build_model(random_desk_instance(seed))
    assert_same_csr(lp, coo_reference[lp])


@pytest.mark.parametrize("hours", [1, 24])
def test_every_spec(coo_reference, hours):
    dataset = build_synth_dataset(7, ["AT", "DE", "FR"], [2009], 24)
    specs = specs_for_selector("all", [2009], hours)
    assert len(specs) == 13
    for spec in specs:
        lp = build_model(make_instance(dataset, spec, 2009))
        if hours == 1 and spec.name == "base-hp25-ep2":
            assert (lp.matrix().data == 0.0).any()  # the cyclic self-terms cancel to stored zeros
        assert_same_csr(lp, coo_reference[lp])


def test_named_blocks_column_major_with_zeros_and_repeats(coo_reference):
    rng = np.random.default_rng(3)
    lp = LinearProgram("named")
    n = 30
    cols = lp.add_named_cols([f"x{j}" for j in range(n)], np.zeros(n), np.ones(n), rng.normal(size=n))
    for block in range(3):
        m = 40
        # Column-major, as MPS lists them: each (row, column) 1-3 times, some coefficients zero.
        pairs = [(i, j) for j in range(n) for i in range(m) if rng.random() < 0.3]
        repeats = rng.integers(1, 4, len(pairs))
        entries = [(i, j, rng.choice([0.0, 0.1, 0.2, 0.3, rng.normal()])) for (i, j), k in zip(pairs, repeats) for _ in range(k)]
        rows, ecols, coefs = zip(*entries)
        lp.add_named_rows([f"b{block}r{i}" for i in range(m)], ["L"] * m, np.ones(m), (rows, ecols, coefs))
        lp.add_rows((f"k{block}",), {"bal": ("E", 1.0, [(cols[:5], 1.0), (cols[2:7], 0.1), (cols[0], -1.0)])})
    lp.add_named_rows(["empty"], ["G"], [0.0])
    lp.freeze()
    assert_same_csr(lp, coo_reference[lp])


def test_an_empty_lp(coo_reference):
    lp = LinearProgram("empty")
    lp.add_named_cols(["x"], [0.0], [1.0], [1.0])
    lp.add_named_rows(["r"], ["L"], [1.0])
    assert_same_csr(lp.freeze(), coo_reference[lp])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_freeze_names_the_row_of_a_non_finite_coefficient(bad):
    lp = LinearProgram("keyed")
    x = lp.add_cols(("DE",), {"gen": (0.0, 1.0, 1.0)}, 4)["gen"]
    lp.add_rows(("DE",), {"gcap": ("L", 1.0, [(x, 1.0)]), "bal": ("E", 1.0, [(x, [1.0, 2.0, bad, 3.0])])}, 4)
    with pytest.raises(LpError, match=r"row 'bal\[DE,2\]': non-finite coefficient"):
        lp.freeze()
    lp = LinearProgram("named")
    lp.add_named_cols(["x", "y"], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0])
    lp.add_named_rows(["r0", "r1", "r2"], ["L"] * 3, [1.0] * 3, ([2, 1, 0, 1], [0, 1, 1, 0], [1.0, 1.0, 1.0, bad]))
    with pytest.raises(LpError, match=r"row 'r1': non-finite coefficient"):
        lp.freeze()


def test_entries_out_of_range_raise():
    lp = LinearProgram("rows")
    lp.add_named_cols(["x"], [0.0], [1.0], [1.0])
    with pytest.raises(LpError, match="row is not in"):
        lp.add_named_rows(["r0", "r1"], ["L", "L"], [1.0, 1.0], ([0, 2], [0, 0], [1.0, 1.0]))
    lp = LinearProgram("cols")
    lp.add_named_cols(["x"], [0.0], [1.0], [1.0])
    lp.add_named_rows(["r0"], ["L"], [1.0], ([0], [1], [1.0]))
    with pytest.raises(LpError, match="column is not in"):
        lp.freeze()


def test_a_matrix_read_while_building_stays_right(coo_reference):
    """Only the catalog of an LP being built can be read; a read of its stores raises and changes nothing."""
    lp = LinearProgram("growing")
    lp.add_named_cols(["x", "y"], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0])
    lp.add_named_rows(["r0"], ["L"], [1.0], ([0, 0, 0], [1, 0, 1], [0.1, 1.0, 0.2]))
    reads = [
        lp.matrix, lp.stats, lambda: lp.col_lo, lambda: lp.row_sense, lambda: lp.col_names,
        lambda: lp.row_names, lambda: lp.col("x"), lambda: lp.lo, lambda: lp.rows,
    ]
    for read in reads:
        with pytest.raises(LpError, match="not frozen"):
            read()
    assert (lp.num_cols, lp.num_rows) == (2, 1)
    np.testing.assert_array_equal(lp.row_families[""].member(("r0",)), [0])
    lp.add_named_rows(["r1"], ["L"], [1.0], ([0, 0], [1, 0], [2.0, 3.0]))
    assert_same_csr(lp.freeze(), coo_reference[lp])
    assert lp.col("y") == 1 and lp.rows[1] == [(0, 3.0), (1, 2.0)]
    with pytest.raises(LpError, match="is frozen"):
        lp.add_named_rows(["r2"], ["L"], [1.0])


# Each fault freeze finds, with the message it raises.
_FAULTS = {
    "bound": r"column 'gen\[DE,1\]': bad bounds/objective",
    "rhs": r"row 'bal\[DE,0\]': non-finite rhs",
    "coefficient": r"row 'bal\[DE,1\]': non-finite coefficient",
}


@pytest.mark.parametrize("fault", _FAULTS)
def test_a_failed_freeze_leaves_a_spent_lp(fault):
    lp = LinearProgram(fault)
    x = lp.add_cols(("DE",), {"gen": (0.0, [1.0, -1.0] if fault == "bound" else 1.0, 1.0)}, 2)["gen"]
    rhs = np.nan if fault == "rhs" else 1.0
    coef = np.nan if fault == "coefficient" else 2.0
    lp.add_rows(("DE",), {"bal": ("E", rhs, [(x, [1.0, coef])])}, 2)
    with pytest.raises(LpError, match=_FAULTS[fault]):
        lp.freeze()
    for spent in [
        lp.freeze, lambda: lp.add_cols(("FR",), {"gen": (0.0, 1.0, 1.0)}), lambda: lp.add_named_rows(["r"], ["L"], [1.0]),
        lp.matrix, lambda: lp.col_lo, lambda: lp.row_rhs, lambda: lp.col_names, lambda: lp.rhs,
    ]:
        with pytest.raises(LpError, match="spent|not frozen"):
            spent()


def test_freeze_frees_every_piece_and_the_build_only_state(monkeypatch):
    lp = LinearProgram("pieces")
    lp.add_named_cols(["x", "y"], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0])
    lp.add_cols(("DE",), {"gen": (0.0, 1.0, 1.0), "ch": (0.0, 1.0, 0.0)}, 3)
    lp.add_named_rows(["r0", "r1"], ["L", "G"], [1.0, 0.0], ([1, 0, 1], [1, 0, 0], [0.5, 1.0, 2.0]))
    lp.add_rows(("DE",), {"bal": ("E", 1.0, [([2, 3, 4], 1.0)])}, 3)
    pieces = [weakref.ref(piece) for store in lp._pieces.values() for piece in store]
    assert len(pieces) == 8 * 2
    csr_matrix = sparse.csr_matrix

    def all_joined(*args, **kwargs):  # freeze's last join is an argument of this call
        assert [ref() for ref in pieces if ref() is not None] == []
        return csr_matrix(*args, **kwargs)

    monkeypatch.setattr(sparse, "csr_matrix", all_joined)
    lp.freeze()
    assert lp._pieces is lp._named_cols is lp._named_rows is None
    assert lp.matrix().nnz == 6 and lp.row_sense.tolist() == ["L", "G", "E", "E", "E"]


def test_a_family_joined_then_extended():
    lp = LinearProgram("family")
    de = lp.add_cols(("DE",), {"gen": (0.0, 1.0, 0.0), "ch": (0.0, 1.0, 0.0)}, 3)
    fam = lp.col_family("gen")
    np.testing.assert_array_equal(fam.index, [de["gen"]])
    assert all(np.shares_memory(part, fam.index) for part in fam._parts)  # not the added block
    fr = lp.add_cols(("FR",), {"gen": (0.0, 1.0, 0.0)}, 3)
    np.testing.assert_array_equal(fam.index, [de["gen"], fr["gen"]])
    np.testing.assert_array_equal(fam.member(("FR",)), fr["gen"])
