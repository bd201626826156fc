"""MPS export and import of a :class:`LinearProgram`.

Export writes fixed-format MPS with ROWS/COLUMNS/RHS/RANGES/BOUNDS
sections. Names longer than 8 characters are mangled: non-alphanumerics
become ``_``, the result is truncated to 8, and collisions get a
deterministic base-36 suffix. The bijective mangled->original map is
written to a JSON sidecar (``<path>.names.json``); import restores the
original names when the sidecar is present.

Export works on whole arrays and streams: every short name is padded to
its field once, every distinct number is formatted once, and each section
is written to the open file in chunks of lines as it is made, so no
full list of lines is ever held. Import reads the file line by line into
flat arrays of (row, column, value) entries, maps names to indices with
one dict per section, and adds all columns and all rows to the
:class:`LinearProgram` in one block each. A row whose original name is
``fam[...]`` comes back filed under row family ``fam``, so :func:`verify`
groups the residuals of an imported program as it does those of the
built one.

Two practical notes on the fixed format:

* numeric fields carry ``%.17g`` so coefficients round-trip exactly; a
  long number may overflow its 12-character field, so data lines carry a
  single (row, value) pair with the number last on the line, keeping all
  name fields at their fixed positions;
* the constant objective offset is stored as an RHS entry on the
  objective row with value ``-offset`` (the common solver convention).
"""

from __future__ import annotations

import json
import re
from array import array
from itertools import repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .lp import INF, LinearProgram

OBJ_NAME = "OBJ"
_BASE36 = "0123456789abcdefghijklmnopqrstuvwxyz"
_NON_ALNUM = re.compile(r"[^A-Za-z0-9]")
_CHUNK = 1 << 16  # lines formatted and written at a time
_BOUND_KINDS = ("LO", "UP", "FX", "FR", "MI", "PL")


class MpsError(ValueError):
    pass


def _base36(k: int) -> str:
    s = ""
    while True:
        s = _BASE36[k % 36] + s
        k //= 36
        if k == 0:
            return s


def mangle_names(names, reserved=()) -> dict:
    """Stable bijective original->short (<= 8 chars) name map.

    A name's candidates are its base, then the base with base-36 suffix
    0, 1, ...; it takes the first one not yet used. Used names are never
    released, so the next name of the same base resumes where the last
    one stopped, which keeps mangling linear in the number of names.
    """
    used = set(reserved)
    bases: dict[str, str] = {}  # first 8 characters -> base
    resume: dict[str, int] = {}  # base -> position of its next candidate
    out = {}
    for name in names:
        # One character in, one character out: mangling the first 8 is enough.
        head = name[:8]
        base = bases.get(head)
        if base is None:
            base = bases[head] = _NON_ALNUM.sub("_", head) or "X"
        pos = resume.get(base, 0)
        while True:
            if pos == 0:
                short = base
            else:
                suffix = _base36(pos - 1)
                short = base[: 8 - len(suffix)] + suffix
            pos += 1
            if short not in used:
                break
        resume[base] = pos
        used.add(short)
        out[name] = short
    return out


def _numbers(values) -> np.ndarray:
    """``"%.17g" % v`` of every value, each distinct value formatted once."""
    values = np.ascontiguousarray(values, dtype=float)
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    text = ["%.17g" % v for v in bits.view(float).tolist()]
    return np.array(text, dtype=object)[inverse.reshape(-1)]


def _fields(shorts) -> np.ndarray:
    """Each short name padded to its 9-character field plus the separator.

    Fixed-format fields start at columns 2, 5, 15 and 25 (1-indexed): a
    line is ``" " + kind(2) + " " + name(9) + " " + name(9) + " " + value``,
    with trailing blanks stripped.
    """
    return np.array([short.ljust(9) + " " for short in shorts], dtype=object)


def _write_lines(fh, *parts) -> None:
    """Write one line per element: the concatenation of `parts`.

    A part is a string, the same on every line, or an object array of
    strings, one per line.
    """
    count = max((len(p) for p in parts if not isinstance(p, str)), default=0)
    for start in range(0, count, _CHUNK):
        columns = [repeat(p) if isinstance(p, str) else p[start : start + _CHUNK] for p in parts]
        fh.write("\n".join(map("".join, zip(*columns))))
        fh.write("\n")


def export_mps(lp: LinearProgram, path) -> Path:
    """Write `lp` as fixed-format MPS plus a name-map sidecar."""
    path = Path(path)
    row_map = mangle_names(lp.row_names, reserved=(OBJ_NAME,))
    col_map = mangle_names(lp.col_names)
    row_short = np.array([row_map[name] for name in lp.row_names] + [OBJ_NAME], dtype=object)
    col_short = np.array([col_map[name] for name in lp.col_names], dtype=object)
    row_field, col_field = _fields(row_short), _fields(col_short)  # OBJ's is last

    with path.open("w") as fh:
        fh.write(f"NAME          {lp.name[:60]}\nROWS\n N  {OBJ_NAME}\n")
        _write_lines(fh, " ", lp.row_sense.astype(object), "  ", row_short[:-1])

        fh.write("COLUMNS\n")
        _write_columns(fh, lp, col_field, row_field)

        fh.write("RHS\n")
        if lp.offset != 0.0:
            fh.write(f"    RHS       {row_field[-1]}{'%.17g' % -lp.offset}\n")
        nonzero = np.flatnonzero(lp.row_rhs != 0.0)
        _write_lines(fh, "    RHS       ", row_field[nonzero], _numbers(lp.row_rhs[nonzero]))

        fh.write("RANGES\nBOUNDS\n")
        _write_bounds(fh, lp, col_short, col_field)
        fh.write("ENDATA\n")

    with open(str(path) + ".names.json", "w") as fh:
        fh.write('{\n "cols": ')
        _write_json_map(fh, col_map)
        fh.write(f',\n "objective_row": "{OBJ_NAME}",\n "rows": ')
        _write_json_map(fh, row_map)
        fh.write("\n}")
    return path


def _write_columns(fh, lp: LinearProgram, col_field, row_field) -> None:
    """COLUMNS lines, column by column: the objective line, then the entries by row.

    A column has an objective line when its cost is not zero, and also
    when it has no entry at all, or import would drop it. The last of
    `row_field` is the objective row's.
    """
    csc = lp.matrix().tocsc()
    entries = np.diff(csc.indptr)
    with_obj = (lp.col_obj != 0.0) | (entries == 0)
    lines = entries + with_obj
    first = np.cumsum(lines) - lines
    line_row = np.empty(lines.sum(), dtype=np.int64)
    line_value = np.empty(len(line_row))
    line_row[first[with_obj]] = lp.num_rows
    line_value[first[with_obj]] = lp.col_obj[with_obj]
    at = np.arange(csc.nnz) + np.repeat(np.cumsum(with_obj), entries)
    line_row[at], line_value[at] = csc.indices, csc.data
    line_col = np.repeat(np.arange(lp.num_cols), lines)
    _write_lines(fh, "    ", col_field[line_col], row_field[line_row], _numbers(line_value))


def _write_bounds(fh, lp: LinearProgram, col_short, col_field) -> None:
    """BOUNDS lines of every column off the default 0 <= x < inf, in column order.

    A column gets one of FX, FR, MI or LO, then UP when its upper bound
    is finite and not written already.
    """
    lo, hi = lp.col_lo, lp.col_hi
    off_default = (lo != 0.0) | (hi != INF)
    fx = off_default & (lo == hi)
    fr = off_default & ~fx & (lo == -INF) & (hi == INF)
    mi = off_default & ~fx & ~fr & (lo == -INF)
    lo_line = off_default & ~fx & ~fr & ~mi & (lo != 0.0)
    up = off_default & ~fx & ~fr & (hi != INF)
    first = np.flatnonzero(fx | fr | mi | lo_line)
    second = np.flatnonzero(up)
    kinds = [" FX BND       ", " FR BND       ", " MI BND       "]
    first_head = np.select([fx[first], fr[first], mi[first]], kinds, " LO BND       ")
    up_head = np.full(len(second), " UP BND       ", dtype=object)
    head = np.concatenate([first_head.astype(object), up_head])
    free = fr[first] | mi[first]  # no value: the line ends at the unpadded name
    name = np.concatenate([np.where(free, col_short[first], col_field[first]), col_field[second]])
    value = _numbers(np.concatenate([lo[first], hi[second]]))
    value[: len(first)][free] = ""
    order = np.argsort(np.concatenate([2 * first, 2 * second + 1]), kind="stable")
    _write_lines(fh, head[order], name[order], value[order])


def _write_json_map(fh, mapping: dict) -> None:
    """Write {short: name} of an original->short map, nested one level deep.

    The bytes are those of ``json.dumps(..., indent=1, sort_keys=True)``,
    made with the C string encoder instead of the pure-Python indenting one.
    """
    if not mapping:
        fh.write("{}")
        return
    shorts = np.array(list(mapping.values()), dtype=object)
    order = np.argsort(shorts.astype(str), kind="stable")
    shorts = np.array(list(map(encode_basestring_ascii, shorts[order])), dtype=object)
    names = np.array(list(map(encode_basestring_ascii, mapping)), dtype=object)[order]
    fh.write("{\n")
    _write_lines(fh, "  ", shorts[:-1], ": ", names[:-1], ",")
    fh.write(f"  {shorts[-1]}: {names[-1]}\n }}")


def import_mps(path) -> LinearProgram:
    """Parse an MPS file (ours or whitespace-tokenized fixed format).

    The first ``N`` row is the objective. Repeated entries of a column
    (objective or matrix) are summed, a negative ``UP`` bound with no
    ``LO``/``MI`` frees the lower bound, and a ranged row becomes a pair of
    rows ``<name>#lo`` (G) and ``<name>#hi`` (L).
    """
    path = Path(path)
    name = "imported"
    section = obj_row = None
    row_of: dict[str, int] = {}  # ROWS: name -> index; the objective row -> -1
    row_names: list = []
    senses: list = []
    col_of: dict[str, int] = {}  # COLUMNS: name -> index, by first appearance
    entry_rows, entry_cols, entry_vals = array("q"), array("q"), array("d")
    pairs: dict[str, dict] = {"RHS": {}, "RANGES": {}}  # row name -> value
    lo: dict[int, float] = {}
    hi: dict[int, float] = {}
    lower, freed = set(), set()  # columns with LO/MI; negative UP since the last FX

    with path.open() as fh:
        for raw in fh:
            fields = raw.split()
            if not fields or fields[0][0] == "*":
                continue
            if not raw[0].isspace():
                section = fields[0].upper()
                if section == "NAME" and len(fields) > 1:
                    name = fields[1]
                if section == "ENDATA":
                    break
                continue
            if section == "COLUMNS":
                if len(fields) != 3 and len(fields) != 5:
                    raise MpsError(f"bad COLUMNS line: {raw!r}")
                col = col_of.setdefault(fields[0], len(col_of))
                for k in range(1, len(fields), 2):
                    row = row_of.get(fields[k])
                    if row is None:
                        raise MpsError(f"COLUMNS references unknown row {fields[k]!r}")
                    entry_rows.append(row)
                    entry_cols.append(col)
                    entry_vals.append(float(fields[k + 1]))
            elif section == "BOUNDS":
                kind = fields[0].upper()
                if kind == "BV":
                    raise MpsError("binary bounds are not supported (pure LP)")
                if kind not in _BOUND_KINDS:
                    raise MpsError(f"unknown bound type {kind!r}")
                if len(fields) < (4 if kind in ("LO", "UP", "FX") else 3):
                    raise MpsError(f"bad BOUNDS line: {raw!r}")
                col = col_of.get(fields[2])
                if col is None:
                    continue  # a column without COLUMNS lines does not exist
                if kind == "LO":
                    lo[col] = float(fields[3])
                    lower.add(col)
                elif kind == "UP":
                    hi[col] = value = float(fields[3])
                    if value < 0.0:
                        freed.add(col)  # classic MPS quirk, applied below
                elif kind == "FX":
                    lo[col] = hi[col] = float(fields[3])
                    freed.discard(col)
                elif kind == "FR":
                    lo[col], hi[col] = -INF, INF
                elif kind == "MI":
                    lo[col] = -INF
                    lower.add(col)
                else:  # PL
                    hi[col] = INF
            elif section in pairs:
                if len(fields) != 3 and len(fields) != 5:
                    raise MpsError(f"bad {section} line: {raw!r}")
                for k in range(1, len(fields), 2):
                    pairs[section][fields[k]] = float(fields[k + 1])
            elif section == "ROWS":
                sense, row = fields[0].upper(), fields[1]
                if sense == "N":
                    if obj_row is None:
                        obj_row = row
                        row_of[row] = -1
                    continue
                if sense not in ("L", "E", "G"):
                    raise MpsError(f"unknown row sense {sense!r}")
                row_of[row] = len(row_names)
                row_names.append(row)
                senses.append(sense)
            elif section != "NAME":
                raise MpsError(f"data line outside known section: {raw!r}")

    # A negative UP frees the lower bound unless the column has a LO or MI.
    for col in freed - lower:
        lo[col] = -INF

    num_cols = len(col_of)
    rows, cols = np.frombuffer(entry_rows, np.int64), np.frombuffer(entry_cols, np.int64)
    vals = np.frombuffer(entry_vals, float)
    in_obj = rows == -1
    obj = np.bincount(cols[in_obj], weights=vals[in_obj], minlength=num_cols).astype(float)
    rows, cols, vals = rows[~in_obj], cols[~in_obj], vals[~in_obj]

    rhs = np.zeros(len(row_names))
    offset = -pairs["RHS"].pop(obj_row) if obj_row in pairs["RHS"] else 0.0
    for row, value in pairs["RHS"].items():
        if row_of.get(row, -1) >= 0:
            rhs[row_of[row]] = value

    sidecar_path = Path(str(path) + ".names.json")
    col_names, senses = list(col_of), np.array(senses, dtype="<U1")
    if sidecar_path.exists():
        sidecar = json.loads(sidecar_path.read_text())
        col_restore, row_restore = sidecar.get("cols", {}), sidecar.get("rows", {})
        col_names = list(map(col_restore.get, col_names, col_names))
        row_names = list(map(row_restore.get, row_names, row_names))

    ranges = {row_of[row]: r for row, r in pairs["RANGES"].items() if row_of.get(row, -1) >= 0}
    if ranges:
        row_names, senses, rhs, (rows, cols, vals) = _split_ranged(
            row_names, senses, rhs, (rows, cols, vals), ranges
        )

    lp = LinearProgram(name=name)
    lp.offset = offset
    lp.add_named_cols(
        col_names,
        _filled(num_cols, 0.0, lo),
        _filled(num_cols, INF, hi),
        obj,
    )
    lp.add_named_rows(row_names, senses, rhs, (rows, cols, vals))
    return lp.freeze()


def _filled(size: int, default: float, values: dict) -> np.ndarray:
    out = np.full(size, default)
    out[list(values)] = list(values.values())
    return out


def _split_ranged(names, senses, rhs, entries, ranges: dict):
    """Replace every ranged row by a `#lo` (G) and a `#hi` (L) row, each with its entries."""
    width = np.ones(len(names), dtype=np.int64)
    width[list(ranges)] = 2
    first = np.cumsum(width) - width  # new index of each row, of its `#lo` row if ranged
    take = np.repeat(np.arange(len(names)), width)
    new_names = [names[i] for i in take.tolist()]
    new_senses, new_rhs = senses[take], rhs[take]
    for row, r in ranges.items():
        at = first[row]
        new_names[at], new_names[at + 1] = names[row] + "#lo", names[row] + "#hi"
        new_senses[at], new_senses[at + 1] = "G", "L"
        new_rhs[at], new_rhs[at + 1] = _range_interval(senses[row], rhs[row], r)
    rows, cols, vals = entries
    twice = width[rows] == 2
    entries = (
        np.concatenate([first[rows], first[rows[twice]] + 1]),
        np.concatenate([cols, cols[twice]]),
        np.concatenate([vals, vals[twice]]),
    )
    return new_names, new_senses, new_rhs, entries


def _range_interval(sense: str, b: float, r: float) -> tuple[float, float]:
    if sense == "L":
        return b - abs(r), b
    if sense == "G":
        return b, b + abs(r)
    if r >= 0:
        return b, b + r
    return b + r, b
