"""Sparse linear-program container with a bidirectional name catalog.

Rows carry a sense in {<=, =, >=} (encoded 'L', 'E', 'G') and columns have
individual bounds, so the container maps 1:1 onto MPS. Column and row
names double as the variable catalog: every model symbol maps to exactly
one column family, recognizable by its name prefix (e.g. ``gen[DE,ccgt,17]``).

Build with :meth:`add_col` / :meth:`add_row`, then :meth:`freeze`; a frozen
program is immutable and safe to share across threads.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

INF = float("inf")

SENSES = ("L", "E", "G")


class LpError(ValueError):
    pass


class LinearProgram:
    """Minimization LP: min c'x + offset s.t. rows, lo <= x <= hi."""

    def __init__(self, name: str = "lp"):
        self.name = name
        self.col_names: list[str] = []
        self._col_index: dict[str, int] = {}
        self.lo: list[float] = []
        self.hi: list[float] = []
        self.obj: list[float] = []
        self.row_names: list[str] = []
        self._row_index: dict[str, int] = {}
        self.senses: list[str] = []
        self.rhs: list[float] = []
        self.rows: list[list[tuple[int, float]]] = []
        self.offset: float = 0.0
        self._frozen = False

    # -- construction -----------------------------------------------------

    def add_col(self, name: str, lo: float = 0.0, hi: float = INF, obj: float = 0.0) -> int:
        self._check_mutable()
        if name in self._col_index:
            raise LpError(f"duplicate column {name!r}")
        if np.isnan(lo) or np.isnan(hi) or not np.isfinite(obj):
            raise LpError(f"column {name!r}: bad bounds/objective ({lo}, {hi}, {obj})")
        if lo > hi:
            raise LpError(f"column {name!r}: lower {lo} > upper {hi}")
        idx = len(self.col_names)
        self.col_names.append(name)
        self._col_index[name] = idx
        self.lo.append(float(lo))
        self.hi.append(float(hi))
        self.obj.append(float(obj))
        return idx

    def add_row(self, name: str, sense: str, rhs: float, entries) -> int:
        self._check_mutable()
        if name in self._row_index:
            raise LpError(f"duplicate row {name!r}")
        if sense not in SENSES:
            raise LpError(f"row {name!r}: sense {sense!r} not in {SENSES}")
        if not np.isfinite(rhs):
            raise LpError(f"row {name!r}: non-finite rhs {rhs}")
        terms: dict[int, float] = {}
        for col, coef in entries:
            idx = self.col(col)
            coef = float(coef)
            if not np.isfinite(coef):
                raise LpError(f"row {name!r}: non-finite coefficient on {col!r}")
            if coef != 0.0:
                terms[idx] = terms.get(idx, 0.0) + coef
        ridx = len(self.row_names)
        self.row_names.append(name)
        self._row_index[name] = ridx
        self.senses.append(sense)
        self.rhs.append(float(rhs))
        self.rows.append(sorted(terms.items()))
        return ridx

    def freeze(self) -> "LinearProgram":
        self._frozen = True
        return self

    def _check_mutable(self):
        if self._frozen:
            raise LpError("LinearProgram is frozen")

    # -- catalog ----------------------------------------------------------

    def col(self, name_or_idx) -> int:
        if isinstance(name_or_idx, str):
            try:
                return self._col_index[name_or_idx]
            except KeyError:
                raise LpError(f"unknown column {name_or_idx!r}") from None
        return int(name_or_idx)

    def has_col(self, name: str) -> bool:
        return name in self._col_index

    def col_name(self, idx: int) -> str:
        return self.col_names[idx]

    @property
    def num_cols(self) -> int:
        return len(self.col_names)

    @property
    def num_rows(self) -> int:
        return len(self.row_names)

    # -- dense/sparse views -------------------------------------------------

    def matrix(self) -> sparse.csr_matrix:
        data, indices, indptr = [], [], [0]
        for row in self.rows:
            for idx, coef in row:
                indices.append(idx)
                data.append(coef)
            indptr.append(len(indices))
        return sparse.csr_matrix(
            (np.array(data), np.array(indices, dtype=np.int64), np.array(indptr, dtype=np.int64)),
            shape=(self.num_rows, self.num_cols),
        )

    def stats(self) -> dict:
        nnz = sum(len(r) for r in self.rows)
        return {"rows": self.num_rows, "cols": self.num_cols, "nnz": nnz}

    def __repr__(self):
        s = self.stats()
        return f"LinearProgram({self.name!r}, rows={s['rows']}, cols={s['cols']}, nnz={s['nnz']})"
