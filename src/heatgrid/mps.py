"""MPS export/import and solution-CSV round-tripping.

Export writes fixed-format MPS with ROWS/COLUMNS/RHS/RANGES/BOUNDS
sections. Names longer than 8 characters are mangled: non-alphanumerics
become ``_``, the result is truncated to 8, and collisions get a
deterministic base-36 suffix. The bijective mangled->original map is
written to a JSON sidecar (``<path>.names.json``); import restores the
original names when the sidecar is present.

Two practical notes on the fixed format:

* numeric fields carry ``%.17g`` so coefficients round-trip exactly; a
  long number may overflow its 12-character field, so data lines carry a
  single (row, value) pair with the number last on the line, keeping all
  name fields at their fixed positions;
* the constant objective offset is stored as an RHS entry on the
  objective row with value ``-offset`` (the common solver convention).
"""

from __future__ import annotations

import csv
import json
import re
from pathlib import Path

import numpy as np

from .lp import INF, LinearProgram

OBJ_NAME = "OBJ"
_BASE36 = "0123456789abcdefghijklmnopqrstuvwxyz"
_NON_ALNUM = re.compile(r"[^A-Za-z0-9]")


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
    resume: dict[str, int] = {}  # base -> position of its next candidate
    out = {}
    for name in names:
        # One character in, one character out: mangling the first 8 is enough.
        base = _NON_ALNUM.sub("_", name[:8]) or "X"
        pos = resume.get(base, 0)
        short = base if pos == 0 else _suffixed(base, pos - 1)
        while short in used:
            short = _suffixed(base, pos)
            pos += 1
        resume[base] = pos + 1
        used.add(short)
        out[name] = short
    return out


def _suffixed(base: str, k: int) -> str:
    suffix = _base36(k)
    return base[: 8 - len(suffix)] + suffix


def _num(x: float) -> str:
    return "%.17g" % x


def _line(f1: str, f2: str = "", f3: str = "", f4: str = "") -> str:
    # Fixed-format field starts: 2, 5, 15, 25 (1-indexed).
    line = " " + f1.ljust(2) + " " + f2.ljust(9) + " " + f3.ljust(9) + " " + f4
    return line.rstrip()


def export_mps(lp: LinearProgram, path) -> Path:
    """Write `lp` as fixed-format MPS plus a name-map sidecar."""
    path = Path(path)
    row_map = mangle_names(lp.row_names, reserved=(OBJ_NAME,))
    col_map = mangle_names(lp.col_names)
    row_short = [row_map[name] for name in lp.row_names]
    col_short = [col_map[name] for name in lp.col_names]
    col_lo, col_hi, obj, rhs = (a.tolist() for a in (lp.col_lo, lp.col_hi, lp.col_obj, lp.row_rhs))

    lines = [f"NAME          {lp.name[:60]}"]
    lines.append("ROWS")
    lines.append(_line("N", OBJ_NAME))
    for short, sense in zip(row_short, lp.row_sense.tolist()):
        lines.append(_line(sense, short))

    lines.append("COLUMNS")
    csc = lp.matrix().tocsc()
    ptr, rows, coefs = csc.indptr.tolist(), csc.indices.tolist(), csc.data.tolist()
    for cidx, short in enumerate(col_short):
        start, end = ptr[cidx], ptr[cidx + 1]
        # A column with no entry at all still needs one line, or import drops it.
        if obj[cidx] != 0.0 or start == end:
            lines.append(_line("", short, OBJ_NAME, _num(obj[cidx])))
        for ridx, coef in zip(rows[start:end], coefs[start:end]):
            lines.append(_line("", short, row_short[ridx], _num(coef)))

    lines.append("RHS")
    if lp.offset != 0.0:
        lines.append(_line("", "RHS", OBJ_NAME, _num(-lp.offset)))
    for short, value in zip(row_short, rhs):
        if value != 0.0:
            lines.append(_line("", "RHS", short, _num(value)))

    lines.append("RANGES")

    lines.append("BOUNDS")
    for short, lo, hi in zip(col_short, col_lo, col_hi):
        if lo == 0.0 and hi == INF:
            continue  # MPS default
        if lo == hi:
            lines.append(_line("FX", "BND", short, _num(lo)))
            continue
        if lo == -INF and hi == INF:
            lines.append(_line("FR", "BND", short))
            continue
        if lo == -INF:
            lines.append(_line("MI", "BND", short))
        elif lo != 0.0:
            lines.append(_line("LO", "BND", short, _num(lo)))
        elif hi < 0.0:
            lines.append(_line("LO", "BND", short, _num(0.0)))  # keep lo explicit
        if hi != INF:
            lines.append(_line("UP", "BND", short, _num(hi)))

    lines.append("ENDATA")
    path.write_text("\n".join(lines) + "\n")

    sidecar = {
        "rows": {short: name for name, short in row_map.items()},
        "cols": {short: name for name, short in col_map.items()},
        "objective_row": OBJ_NAME,
    }
    Path(str(path) + ".names.json").write_text(json.dumps(sidecar, indent=1, sort_keys=True))
    return path


def import_mps(path) -> LinearProgram:
    """Parse an MPS file (ours or whitespace-tokenized fixed format)."""
    path = Path(path)
    sidecar_path = Path(str(path) + ".names.json")
    row_restore = col_restore = None
    if sidecar_path.exists():
        sidecar = json.loads(sidecar_path.read_text())
        row_restore = sidecar.get("rows", {})
        col_restore = sidecar.get("cols", {})

    name = "imported"
    section = None
    obj_row = None
    row_sense: dict[str, str] = {}
    row_order: list[str] = []
    col_order: list[str] = []
    cols_seen: set = set()
    row_entries: dict[str, list] = {}
    col_obj: dict[str, float] = {}
    rhs: dict[str, float] = {}
    ranges: dict[str, float] = {}
    bounds: dict[str, list] = {}
    offset = 0.0

    for raw in path.read_text().splitlines():
        if not raw.strip() or raw.lstrip().startswith("*"):
            continue
        if not raw[0].isspace():
            parts = raw.split()
            section = parts[0].upper()
            if section == "NAME" and len(parts) > 1:
                name = parts[1]
            if section == "ENDATA":
                break
            continue
        fields = raw.split()
        if section == "ROWS":
            sense, rname = fields[0].upper(), fields[1]
            if sense == "N":
                if obj_row is None:
                    obj_row = rname
                continue
            if sense not in ("L", "E", "G"):
                raise MpsError(f"unknown row sense {sense!r}")
            row_sense[rname] = sense
            row_order.append(rname)
        elif section == "COLUMNS":
            cname = fields[0]
            if len(fields) not in (3, 5):
                raise MpsError(f"bad COLUMNS line: {raw!r}")
            if cname not in cols_seen:
                cols_seen.add(cname)
                col_order.append(cname)
            for rname, value in zip(fields[1::2], fields[2::2]):
                value = float(value)
                if rname == obj_row:
                    col_obj[cname] = col_obj.get(cname, 0.0) + value
                else:
                    if rname not in row_sense:
                        raise MpsError(f"COLUMNS references unknown row {rname!r}")
                    row_entries.setdefault(rname, []).append((cname, value))
        elif section == "RHS":
            if len(fields) not in (3, 5):
                raise MpsError(f"bad RHS line: {raw!r}")
            for rname, value in zip(fields[1::2], fields[2::2]):
                if rname == obj_row:
                    offset = -float(value)
                else:
                    rhs[rname] = float(value)
        elif section == "RANGES":
            for rname, value in zip(fields[1::2], fields[2::2]):
                ranges[rname] = float(value)
        elif section == "BOUNDS":
            btype = fields[0].upper()
            cname = fields[2]
            value = float(fields[3]) if len(fields) > 3 else None
            bounds.setdefault(cname, []).append((btype, value))
        elif section == "NAME":
            continue
        else:
            raise MpsError(f"data line outside known section: {raw!r}")

    def rname_out(rname: str) -> str:
        return row_restore.get(rname, rname) if row_restore else rname

    def cname_out(cname: str) -> str:
        return col_restore.get(cname, cname) if col_restore else cname

    lp = LinearProgram(name=name)
    lp.offset = offset
    for cname in col_order:
        lo, hi = 0.0, INF
        for btype, value in bounds.get(cname, []):
            if btype == "LO":
                lo = value
            elif btype == "UP":
                hi = value
                if value is not None and value < 0.0 and not any(
                    b == "LO" or b == "MI" for b, _ in bounds.get(cname, [])
                ):
                    lo = -INF  # classic MPS quirk: negative UP frees the lower bound
            elif btype == "FX":
                lo = hi = value
            elif btype == "FR":
                lo, hi = -INF, INF
            elif btype == "MI":
                lo = -INF
            elif btype == "PL":
                hi = INF
            elif btype == "BV":
                raise MpsError("binary bounds are not supported (pure LP)")
            else:
                raise MpsError(f"unknown bound type {btype!r}")
        lp.add_col(cname_out(cname), lo, hi, col_obj.get(cname, 0.0))

    for rname in row_order:
        sense = row_sense[rname]
        b = rhs.get(rname, 0.0)
        entries = [(cname_out(cn), value) for cn, value in row_entries.get(rname, [])]
        if rname in ranges:
            r = ranges[rname]
            lo_b, hi_b = _range_interval(sense, b, r)
            lp.add_row(rname_out(rname) + "#lo", "G", lo_b, entries)
            lp.add_row(rname_out(rname) + "#hi", "L", hi_b, entries)
        else:
            lp.add_row(rname_out(rname), sense, b, entries)
    return lp.freeze()


def _range_interval(sense: str, b: float, r: float) -> tuple[float, float]:
    if sense == "L":
        return b - abs(r), b
    if sense == "G":
        return b, b + abs(r)
    if r >= 0:
        return b, b + r
    return b + r, b


def write_solution_csv(lp: LinearProgram, values: np.ndarray, path) -> Path:
    """External-solver interchange: one `column_name,value` row per column."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["column_name", "value"])
        for name, value in zip(lp.col_names, values):
            writer.writerow([name, repr(float(value))])
    return path


def read_solution_csv(lp: LinearProgram, path) -> np.ndarray:
    """Read a solution CSV back into an array aligned with `lp` columns.

    Columns absent from the file default to 0.0.
    """
    path = Path(path)
    values = np.zeros(lp.num_cols)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["column_name", "value"]:
            raise MpsError(f"{path}: header {header} != ['column_name', 'value']")
        for row in reader:
            if not row:
                continue
            if not lp.has_col(row[0]):
                raise MpsError(f"{path}: unknown column {row[0]!r}")
            values[lp.col(row[0])] = float(row[1])
    return values
