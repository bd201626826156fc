"""Sparse linear-program store with a family catalog.

Rows carry a sense in {<=, =, >=} (encoded 'L', 'E', 'G') and columns have
individual bounds, so the store maps 1:1 onto MPS. Every column and row
belongs to a family (``gen``, ``bal``, ...) and, within it, to a key such
as ``("DE", "ccgt")``; hourly families hold one entry per key and hour.
The catalog maps each family to its keys and an index array, so model
code reads a family's values by index, never by name.

An LP is built, then frozen, then read. :meth:`add_cols` / :meth:`add_rows`
append the entries of one key as numpy blocks; :meth:`add_named_cols` /
:meth:`add_named_rows` add entries under names of their own (MPS import),
a row ``fam[...]`` filed under family ``fam``. While an LP is built, only
its catalog and counts can be read. :meth:`freeze` joins each store once,
checks it, and builds the CSR :meth:`matrix` from row blocks: each
``add_rows`` / ``add_named_rows`` call appends its entries grouped by row,
in the order given (int32 columns and coefficients), and a count per row,
whose running sum is the ``indptr``. A frozen LP is immutable and safe to
share across threads; one whose freeze raised is spent. Its arrays
(``col_lo``, ``col_hi``, ``col_obj``, ``row_sense``, ``row_rhs``) are plain
attributes; names such as ``gen[DE,ccgt,17]`` (``col_names``,
``row_names``, :meth:`col`) and the per-entry Python lists ``lo``, ``hi``,
``obj``, ``senses``, ``rhs`` and ``rows`` are built on first use.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
from scipy import sparse

INF = float("inf")

SENSES = ("L", "E", "G")

# Family of the columns added under their own names, and of the rows so
# added whose name gives no family.
NAMED = ""

# The stores an LP appends to while built, each with the dtype it is joined to; the
# entries are each row's count, then its columns and coefficients in the order added.
_STORES = dict(
    col_lo=float, col_hi=float, col_obj=float, row_sense="<U1", row_rhs=float,
    row_nnz=np.int64, entry_cols=np.int32, entry_vals=float,
)

# The attributes that freeze sets: a program being built or spent has none.
_FROZEN = ("col_lo", "col_hi", "col_obj", "row_sense", "row_rhs", "_matrix")


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


class LinearProgram:
    """Minimization LP: min c'x + offset s.t. rows, lo <= x <= hi; built, then frozen, then read."""

    def __init__(self, name: str = "lp"):
        self.name = name
        self.offset: float = 0.0
        self.num_cols = 0
        self.num_rows = 0
        self.col_families: dict[str, Family] = {}
        self.row_families: dict[str, Family] = {}
        # Build-only state, dropped by freeze: each store's pieces, and the names added.
        self._pieces: dict | None = {store: [] for store in _STORES}
        self._named_cols: set | None = set()
        self._named_rows: set | None = set()
        self._frozen = False

    def __getattr__(self, name: str):
        # Reached only for an attribute not set; freeze sets those of _FROZEN.
        if name in _FROZEN:
            self._check_frozen(name.lstrip("_"))
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

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
        self._append(col_lo=lo, col_hi=hi, col_obj=obj)
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
        self._append(row_nnz=np.bincount(r, minlength=index.size), entry_cols=c, entry_vals=v,
                     row_sense=sense_b.ravel(), row_rhs=rhs_b.ravel())
        self.num_rows += index.size
        return self._catalog(self.row_families, rows, key, hours, index)

    def _catalog(self, families: dict, names, key: tuple, hours, index: np.ndarray) -> dict:
        """File column j of `index` (hour, family) under the j-th of `names`."""
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
        lo, hi, obj = (np.array(values, dtype=float).reshape(index.shape) for values in (lo, hi, obj))
        self._append(col_lo=lo, col_hi=hi, col_obj=obj)
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
        self._append(row_nnz=np.bincount(rows, minlength=index.size), entry_cols=cols[order], entry_vals=coefs[order],
                     row_sense=senses, row_rhs=np.array(rhs, dtype=float).reshape(index.shape))
        self.num_rows += index.size
        members: dict[str, list] = {}
        for i, name in enumerate(names):
            head, bracket, _ = name.partition("[")
            members.setdefault(head if head and bracket else NAMED, []).append(i)
        self._file_named(self.row_families, members, names, start)
        return index

    def _append(self, **pieces) -> None:
        """Append a piece to each named store."""
        for store, piece in pieces.items():
            self._pieces[store].append(piece)

    def _file_named(self, families: dict, members: dict, names: list, start: int) -> None:
        """File the entries at `start` + positions under each family of `members`."""
        for family, positions in members.items():
            fam = families.get(family)
            if fam is None:
                fam = families[family] = Family(family, None, named=True)
            elif not fam.named:
                raise LpError(f"family {family!r} mixes named and keyed entries")
            keys = [(name,) for name in map(names.__getitem__, positions)]
            fam._extend(keys, np.asarray(positions, dtype=np.int64) + start)

    def freeze(self) -> "LinearProgram":
        """Join each store once, check every bound, cost, rhs and coefficient, and build the matrix.

        A freeze that raises leaves the LP spent: every later add, read and freeze raises too.
        """
        if self._frozen:
            return self
        self._check_mutable()
        pieces = self._pieces
        self._pieces = self._named_cols = self._named_rows = None

        def join(store: str) -> np.ndarray:  # the store's pieces are freed as it returns
            dtype = _STORES[store]
            return np.concatenate([np.zeros(0, dtype), *pieces.pop(store)], dtype=dtype)

        lo, hi, obj = join("col_lo"), join("col_hi"), join("col_obj")
        bad = np.isnan(lo) | np.isnan(hi) | ~np.isfinite(obj) | (lo > hi)
        if bad.any():
            raise LpError(f"column {self._names(self.col_families, self.num_cols)[bad.argmax()]!r}: bad bounds/objective")
        sense, rhs = join("row_sense"), join("row_rhs")
        bad = ~np.isfinite(rhs)
        if bad.any():
            raise LpError(f"row {self._names(self.row_families, self.num_rows)[bad.argmax()]!r}: non-finite rhs")
        indptr = np.concatenate([[0], np.cumsum(join("row_nnz"))])
        cols = join("entry_cols")
        if cols.size and not 0 <= cols.min() <= cols.max() < self.num_cols:
            raise LpError(f"an entry's column is not in 0..{self.num_cols - 1}")
        m = sparse.csr_matrix((join("entry_vals"), cols, indptr), shape=(self.num_rows, self.num_cols))
        m.sum_duplicates()  # sorts and sums each row in place
        bad = ~np.isfinite(m.data)
        if bad.any():
            row = np.searchsorted(m.indptr, bad.argmax(), side="right") - 1
            raise LpError(f"row {self._names(self.row_families, self.num_rows)[row]!r}: non-finite coefficient")
        self.col_lo, self.col_hi, self.col_obj, self.row_sense, self.row_rhs = lo, hi, obj, sense, rhs
        self._matrix = m
        self._frozen = True
        return self

    def _check_mutable(self):
        if self._pieces is None:
            raise LpError("LinearProgram is frozen" if self._frozen else "LinearProgram is spent: its freeze failed")

    def _check_frozen(self, what: str):
        if not self._frozen:
            raise LpError(f"LinearProgram is not frozen: {what} is read only once it is")

    def matrix(self) -> sparse.csr_matrix:
        """The constraint matrix, CSR with sorted indices; shared, do not modify."""
        return self._matrix

    def stats(self) -> dict:
        return {"rows": self.num_rows, "cols": self.num_cols, "nnz": self.matrix().nnz}

    def col_family(self, family: str) -> Family:
        """The catalog entry of a column family; an empty one if absent."""
        return self.col_families.get(family) or Family(family, None)

    # -- names and per-entry views, built on first use once frozen ----------

    @staticmethod
    def _names(families: dict, count: int) -> list:
        names = np.empty(count, dtype=object)
        for fam in families.values():
            names[fam.index.ravel()] = np.array(fam.names(), dtype=object)
        return names.tolist()

    @cached_property
    def col_names(self) -> list:
        self._check_frozen("col_names")
        return self._names(self.col_families, self.num_cols)

    @cached_property
    def row_names(self) -> list:
        self._check_frozen("row_names")
        return self._names(self.row_families, self.num_rows)

    @cached_property
    def rows(self) -> list:
        """Per row, its sorted (column, coefficient) pairs."""
        m = self.matrix()
        cols, vals, ptr = m.indices.tolist(), m.data.tolist(), m.indptr.tolist()
        return [list(zip(cols[a:b], vals[a:b])) for a, b in zip(ptr[:-1], ptr[1:])]

    # Plain lists, so that entries compare as Python scalars.
    lo = cached_property(lambda self: self.col_lo.tolist())
    hi = cached_property(lambda self: self.col_hi.tolist())
    obj = cached_property(lambda self: self.col_obj.tolist())
    senses = cached_property(lambda self: self.row_sense.tolist())
    rhs = cached_property(lambda self: self.row_rhs.tolist())

    @cached_property
    def _col_index(self) -> dict:
        return {n: i for i, n in enumerate(self.col_names)}

    def col(self, name_or_idx) -> int:
        if not isinstance(name_or_idx, str):
            return int(name_or_idx)
        idx = self._col_index.get(name_or_idx)
        if idx is None:
            raise LpError(f"unknown column {name_or_idx!r}")
        return idx
