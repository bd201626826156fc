"""Sparse linear-program store with a family catalog.

Rows carry a sense in {<=, =, >=} (encoded 'L', 'E', 'G') and columns have
individual bounds, so the store maps 1:1 onto MPS. Every column and row
belongs to a family (``gen``, ``bal``, ...) and, within it, to a key such
as ``("DE", "ccgt")``; hourly families hold one entry per key and hour.
The catalog maps each family to its keys and an index array, so model
code reads a family's values by index, never by name.

Build with :meth:`add_cols` / :meth:`add_rows`, which append the entries
of one key as numpy blocks, then :meth:`freeze`; a frozen program is
immutable and safe to share across threads. :meth:`add_named_cols` /
:meth:`add_named_rows` add entries under names of their own (MPS
import), a row ``fam[...]`` filed under family ``fam``. Names such as
``gen[DE,ccgt,17]`` are derived from the catalog only when first asked
for (``col_names``, ``row_names``, :meth:`col`).

The program is stored as arrays (``col_lo``, ``col_hi``, ``col_obj``,
``row_sense``, ``row_rhs``) and a CSR :meth:`matrix` built from row
blocks: each ``add_rows`` / ``add_named_rows`` call appends its entries
grouped by row, in the order given (int32 columns and coefficients), and
a count per row, whose running sum is the ``indptr``. ``lo``, ``hi``,
``obj``, ``senses``, ``rhs`` and ``rows`` are per-entry Python lists of
the same data, also built on first use.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

INF = float("inf")

SENSES = ("L", "E", "G")

# Family of the columns added under their own names, and of the rows so
# added whose name gives no family.
NAMED = ""


class LpError(ValueError):
    pass


def _check_new(taken, names: list, what: str) -> None:
    """Raise unless every one of `names` is new: not in `taken`, nor repeated."""
    if len(set(names)) < len(names) or not taken.isdisjoint(names):
        seen = set(taken)
        repeated = next(name for name in names if name in seen or seen.add(name))
        raise LpError(f"duplicate {what} {repeated!r}")


class Family:
    """The keys of one LP family and the index of every entry.

    An hourly family has ``hours`` entries per key: ``index`` has shape
    (len(keys), hours) and entry (k, h) is named ``family[key...,h]``.
    Otherwise ``index`` has shape (len(keys),) and entry k is named
    ``family[key...]``; in a `named` family, the key's one element.
    """

    def __init__(self, name: str, hours: int | None, named: bool = False):
        self.name = name
        self.hours = hours
        self.named = named
        self.keys: list[tuple] = []
        self._parts: list = []
        self._index = None
        self._position = None

    def _extend(self, keys: list, index: np.ndarray) -> None:
        self.keys.extend(keys)
        self._parts.append(index)
        self._index = self._position = None

    @property
    def index(self) -> np.ndarray:
        if self._index is None:
            shape = (-1,) if self.hours is None else (-1, self.hours)
            parts = self._parts or [np.zeros(0, dtype=np.int64)]
            self._index = np.concatenate(parts, dtype=np.int64).reshape(shape)
            self._parts = [self._index.ravel()]  # the join alone: added parts are views of whole blocks
        return self._index

    def member(self, key: tuple):
        """Index of `key`'s entries (a row of ``index``), or None if absent."""
        if self._position is None:
            self._position = {k: i for i, k in enumerate(self.keys)}
        pos = self._position.get(key)
        return None if pos is None else self.index[pos]

    def names(self) -> list:
        """Entry names in the order of ``index.ravel()``."""
        if self.named:
            return [key[0] for key in self.keys]
        if self.hours is None:
            return [f"{self.name}[{','.join(key)}]" for key in self.keys]
        out = []
        for key in self.keys:
            head = f"{self.name}[{','.join(key)},"
            out.extend([f"{head}{h}]" for h in range(self.hours)])
        return out


class _Growing:
    """A 1-D array appended to in pieces and joined on first read.

    Pieces are merged in batches of 256, which frees them before the join.
    """

    _BATCH = 256

    def __init__(self, dtype):
        self._dtype = dtype
        self._array = np.zeros(0, dtype=dtype)
        self._blocks: list = []
        self._parts: list = []

    def extend(self, values) -> None:
        self._parts.append(values)
        if len(self._parts) == self._BATCH:
            self._blocks.append(np.concatenate(self._parts, dtype=self._dtype))
            self._parts = []

    def array(self) -> np.ndarray:
        if self._blocks or self._parts:
            pieces = [self._array, *self._blocks, *self._parts]
            self._array = np.concatenate(pieces, dtype=self._dtype)
            self._blocks, self._parts = [], []
        return self._array


class LinearProgram:
    """Minimization LP: min c'x + offset s.t. rows, lo <= x <= hi."""

    def __init__(self, name: str = "lp"):
        self.name = name
        self.offset: float = 0.0
        self.num_cols = 0
        self.num_rows = 0
        self.col_families: dict[str, Family] = {}
        self.row_families: dict[str, Family] = {}
        self._lo = _Growing(float)
        self._hi = _Growing(float)
        self._obj = _Growing(float)
        self._sense = _Growing("<U1")
        self._rhs = _Growing(float)
        self._row_nnz = _Growing(np.int64)  # entries per row, as added
        self._entry_cols = _Growing(np.int32)  # by row, each row's in the order added
        self._entry_vals = _Growing(float)
        self._named_cols: set = set()
        self._named_rows: set = set()
        self._frozen = False
        self._lazy: dict = {}  # matrix, names, name index, list views

    # -- construction -----------------------------------------------------

    def add_cols(self, key: tuple, columns: dict, hours: int | None = None) -> dict:
        """Append one member per family of `columns` under `key`.

        `columns` maps family -> (lo, hi, obj). With `hours`, each family
        gets `hours` columns (scalars broadcast, arrays have length
        `hours`), interleaved hour by hour in the order of `columns`.
        Returns family -> column index (an int, or an array by hour).
        """
        self._check_mutable()
        size = 1 if hours is None else hours
        index = np.arange(self.num_cols, self.num_cols + size * len(columns)).reshape(size, -1)
        # lo, hi, obj by (hour, family); ravel() of one field is the column order.
        block = np.empty((3,) + index.shape)
        for j, (lo, hi, obj) in enumerate(columns.values()):
            block[0, :, j], block[1, :, j], block[2, :, j] = lo, hi, obj
        lo, hi, obj = block.reshape(3, -1)
        self._lo.extend(lo)
        self._hi.extend(hi)
        self._obj.extend(obj)
        self.num_cols += index.size
        return self._catalog(self.col_families, columns, key, hours, index)

    def add_rows(self, key: tuple, rows: dict, hours: int | None = None) -> dict:
        """Append one member per family of `rows` under `key`.

        `rows` maps family -> (sense, rhs, terms); each term is a pair
        (columns, coefficients) whose arrays broadcast against the rows of
        the family: by hour with `hours`, or all into the single row
        without. Zero coefficients are dropped and repeated columns of a
        row summed. Rows interleave hour by hour in the order of `rows`.
        Returns family -> row index (an int, or an array by hour).
        """
        self._check_mutable()
        size = 1 if hours is None else hours
        index = np.arange(self.num_rows, self.num_rows + size * len(rows)).reshape(size, -1)
        sense_b = np.empty(index.shape, dtype="<U1")
        rhs_b = np.empty(index.shape)
        entries = [(np.zeros(0, np.int64), np.zeros(0, np.int32), np.zeros(0))]  # (row offset, column, coef) by term
        for j, (family, (sense, rhs, terms)) in enumerate(rows.items()):
            if sense not in SENSES:
                raise LpError(f"row {family} of {key}: sense {sense!r} not in {SENSES}")
            sense_b[:, j], rhs_b[:, j] = sense, rhs
            for cols, coefs in terms:
                cols = np.asarray(cols, dtype=np.int64)
                coefs = np.asarray(coefs, dtype=float)
                if not cols.size:
                    continue
                count = max(size, cols.size, coefs.size)
                r, c, v = np.empty(count, np.int64), np.empty(count, np.int32), np.empty(count)
                r[:], c[:], v[:] = index[:, j] - self.num_rows, cols, coefs
                entries.append((r, c, v))
        # A term has one entry per hour, or all its entries in the one row:
        # laid side by side as (hour, entry), the entries come by row, in term order.
        r, c, v = (np.concatenate([a.reshape(size, -1) for a in part], axis=1).ravel() for part in zip(*entries))
        if not v.all():  # a zero given is dropped; terms that cancel stay stored
            keep = v != 0.0
            r, c, v = r[keep], c[keep], v[keep]
        self._append_entries(index.size, r, c, v)
        self._sense.extend(sense_b.ravel())
        self._rhs.extend(rhs_b.ravel())
        self.num_rows += index.size
        return self._catalog(self.row_families, rows, key, hours, index)

    def _catalog(self, families: dict, names, key: tuple, hours, index: np.ndarray) -> dict:
        """File column j of `index` (hour, family) under the j-th of `names`."""
        self._lazy.clear()
        out = {}
        for j, name in enumerate(names):
            fam = families.get(name)
            if fam is None:
                fam = families[name] = Family(name, hours)
            elif fam.named:
                raise LpError(f"family {name!r} mixes named and keyed entries")
            elif fam.hours != hours:
                raise LpError(f"family {name!r} mixes {fam.hours} and {hours} hours per key")
            fam._extend([key], index[:, j])
            out[name] = index[:, j] if hours is not None else int(index[0, j])
        return out

    def add_named_cols(self, names: list, lo, hi, obj) -> np.ndarray:
        """Append one column per name, filed under ``NAMED`` by that name.

        `lo`, `hi` and `obj` are arrays aligned with `names`. Returns the
        new columns' indices.
        """
        self._check_mutable()
        _check_new(self._named_cols, names, "column")
        start = self.num_cols
        index = np.arange(start, start + len(names))
        self._named_cols.update(names)
        for store, values in ((self._lo, lo), (self._hi, hi), (self._obj, obj)):
            store.extend(np.array(values, dtype=float).reshape(index.shape))
        self.num_cols += index.size
        self._file_named(self.col_families, {NAMED: range(len(names))}, names, start)
        return index

    def add_named_rows(self, names: list, senses, rhs, entries=((), (), ())) -> np.ndarray:
        """Append one row per name; `entries` are (row, column, coefficient) arrays.

        `senses` and `rhs` are aligned with `names`, and an entry's row
        counts from 0 within `names`. Every entry is stored, zeros too (MPS
        may list them), and repeated columns of a row summed. A row named
        ``fam[...]`` is filed under family ``fam``, any other under
        ``NAMED``, each keyed by its name. Returns the new rows' indices.
        """
        self._check_mutable()
        _check_new(self._named_rows, names, "row")
        start = self.num_rows
        index = np.arange(start, start + len(names))
        senses = np.array(senses, dtype=str).reshape(index.shape)
        bad = ~np.isin(senses, SENSES)
        if bad.any():
            k = bad.argmax()
            raise LpError(f"row {names[k]!r}: sense {senses[k]!r} not in {SENSES}")
        rows, cols, coefs = (np.array(a, dtype=t) for a, t in zip(entries, (np.int64, np.int32, float)))
        if rows.size and not 0 <= rows.min() <= rows.max() < len(names):
            raise LpError(f"an entry's row is not in 0..{len(names) - 1}")
        self._named_rows.update(names)
        order = np.argsort(rows, kind="stable")  # by row, each row's in the order given
        self._append_entries(len(names), rows[order], cols[order], coefs[order])
        self._sense.extend(senses)
        self._rhs.extend(np.array(rhs, dtype=float).reshape(index.shape))
        self.num_rows += index.size
        members: dict[str, list] = {}
        for i, name in enumerate(names):
            head, bracket, _ = name.partition("[")
            members.setdefault(head if head and bracket else NAMED, []).append(i)
        self._file_named(self.row_families, members, names, start)
        return index

    def _append_entries(self, count: int, rows, cols, coefs) -> None:
        """Append the entries of `count` new rows, grouped by row; `rows` count from 0."""
        self._row_nnz.extend(np.bincount(rows, minlength=count))
        self._entry_cols.extend(cols)
        self._entry_vals.extend(coefs)

    def _file_named(self, families: dict, members: dict, names: list, start: int) -> None:
        """File the entries at `start` + positions under each family of `members`."""
        self._lazy.clear()
        for family, positions in members.items():
            fam = families.get(family)
            if fam is None:
                fam = families[family] = Family(family, None, named=True)
            elif not fam.named:
                raise LpError(f"family {family!r} mixes named and keyed entries")
            keys = [(name,) for name in map(names.__getitem__, positions)]
            fam._extend(keys, np.asarray(positions, dtype=np.int64) + start)

    def freeze(self) -> "LinearProgram":
        """Check every bound, cost, rhs and coefficient, then make the LP immutable."""
        if self._frozen:
            return self
        lo, hi = self.col_lo, self.col_hi
        bad = np.isnan(lo) | np.isnan(hi) | ~np.isfinite(self.col_obj) | (lo > hi)
        if bad.any():
            raise LpError(f"column {self.col_names[bad.argmax()]!r}: bad bounds/objective")
        bad = ~np.isfinite(self.row_rhs)
        if bad.any():
            raise LpError(f"row {self.row_names[bad.argmax()]!r}: non-finite rhs")
        m = self.matrix()
        bad = ~np.isfinite(m.data)
        if bad.any():
            row = np.searchsorted(m.indptr, bad.argmax(), side="right") - 1
            raise LpError(f"row {self.row_names[row]!r}: non-finite coefficient")
        # From here on the matrix holds the entries.
        self._row_nnz = self._entry_cols = self._entry_vals = None
        self._frozen = True
        return self

    def _check_mutable(self):
        if self._frozen:
            raise LpError("LinearProgram is frozen")

    # -- stored arrays -----------------------------------------------------

    @property
    def col_lo(self) -> np.ndarray:
        return self._lo.array()

    @property
    def col_hi(self) -> np.ndarray:
        return self._hi.array()

    @property
    def col_obj(self) -> np.ndarray:
        return self._obj.array()

    @property
    def row_sense(self) -> np.ndarray:
        return self._sense.array()

    @property
    def row_rhs(self) -> np.ndarray:
        return self._rhs.array()

    def matrix(self) -> sparse.csr_matrix:
        """The constraint matrix, CSR with sorted indices; shared, do not modify."""
        m = self._lazy.get("matrix")
        if m is None:
            cols, counts = self._entry_cols.array(), self._row_nnz.array()
            if cols.size and not 0 <= cols.min() <= cols.max() < self.num_cols:
                raise LpError(f"an entry's column is not in 0..{self.num_cols - 1}")
            indptr = np.concatenate([[0], np.cumsum(counts)])
            m = self._lazy["matrix"] = sparse.csr_matrix(
                (self._entry_vals.array(), cols, indptr), shape=(self.num_rows, self.num_cols))
            m.sum_duplicates()  # sorts and sums each row in place, so the store takes the result
            self._row_nnz._array, self._entry_cols._array, self._entry_vals._array = np.diff(m.indptr), m.indices, m.data
        return m

    def stats(self) -> dict:
        return {"rows": self.num_rows, "cols": self.num_cols, "nnz": self.matrix().nnz}

    def col_family(self, family: str) -> Family:
        """The catalog entry of a column family; an empty one if absent."""
        return self.col_families.get(family) or Family(family, None)

    # -- names and per-entry views, built on first use -----------------------

    def _cached(self, what: str, build):
        value = self._lazy.get(what)
        if value is None:
            value = self._lazy[what] = build()
        return value

    @staticmethod
    def _names(families: dict, count: int) -> list:
        names = np.empty(count, dtype=object)
        for fam in families.values():
            names[fam.index.ravel()] = np.array(fam.names(), dtype=object)
        return names.tolist()

    @property
    def col_names(self) -> list:
        return self._cached("col_names", lambda: self._names(self.col_families, self.num_cols))

    @property
    def row_names(self) -> list:
        return self._cached("row_names", lambda: self._names(self.row_families, self.num_rows))

    @property
    def rows(self) -> list:
        """Per row, its sorted (column, coefficient) pairs."""

        def build():
            m = self.matrix()
            cols, vals, ptr = m.indices.tolist(), m.data.tolist(), m.indptr.tolist()
            return [list(zip(cols[a:b], vals[a:b])) for a, b in zip(ptr[:-1], ptr[1:])]

        return self._cached("rows", build)

    # Plain lists, so that entries compare as Python scalars.
    lo = property(lambda self: self._cached("lo", self.col_lo.tolist))
    hi = property(lambda self: self._cached("hi", self.col_hi.tolist))
    obj = property(lambda self: self._cached("obj", self.col_obj.tolist))
    senses = property(lambda self: self._cached("senses", self.row_sense.tolist))
    rhs = property(lambda self: self._cached("rhs", self.row_rhs.tolist))

    def col(self, name_or_idx) -> int:
        if not isinstance(name_or_idx, str):
            return int(name_or_idx)
        index = self._cached("col_index", lambda: {n: i for i, n in enumerate(self.col_names)})
        idx = index.get(name_or_idx)
        if idx is None:
            raise LpError(f"unknown column {name_or_idx!r}")
        return idx
