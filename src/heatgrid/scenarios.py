"""Scenario matrix: base and robustness specs, batch runner, persistence.

:data:`SCENARIO_MATRIX` declares each variant once: its (heat share, ep)
runs, the technologies whose generation bounds it replaces and how, or
that it empties the NTC matrix. The base matrix is exactly three runs: no
heat pumps, 25% heat coverage without thermal storage, and 25% with a
two-hour tank. Each robustness variant (gas_free, half_nuc, no_coal,
no_ntc, wind_cap) pairs a no-heat run with a 25%/two-hour run. A variant
changes only the dataset's bounds and NTC tables (:func:`variant_tables`),
before the cell's instance is built. Every spec executes once per weather
year.

Results persist one directory per (scenario, year) cell: the five tables
of :data:`CELL_TABLES`, each written and read back through its one
declared layout, and a ``manifest.json`` whose fields are declared once,
in :data:`MANIFEST_FIELDS`, plus ``model.mps`` when MPS export is asked
for. A solved cell (:class:`~heatgrid.model.SolvedSystem`) and a loaded
one (:class:`PersistedResult`) hold the five tables alike, so
:func:`write_cell_tables` writes either, a loaded cell answers the same
reads as a solved one, and written back it gives the same bytes.
Writes are atomic (a dot-named temp dir, then rename), cells are
independent and may run on threads of one process, and a failing cell is
recorded without aborting the batch.
"""

from __future__ import annotations

import json
import os
import shutil
import time
import traceback
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import repeat
from operator import attrgetter
from pathlib import Path
from types import NoneType

import numpy as np

from .dataset import Dataset
from .heat import TRAJECTORY_FIELDS, HeatConfig, HeatTrajectory, validate_trajectory
from .ids import HOURS_PER_YEAR
from .ingest import parse_quantity
from .lp import LinearProgram
from .model import (COST_COMPONENTS, MW_PER_GW, CellView, HeatBlock, SolvedSystem, SystemInstance, build_model,
                    extract_solved)
from .mps import export_mps as write_mps
from .series import ModelWindow, ProfileSet, window_july_june
from .solver import _OPTIMUM_CHECK_TOL, ResidualReport, Solution, solve
from .staticdata import Bounds, BoundsTable, NtcMatrix

MANIFEST_SCHEMA = "heatgrid-result-v1"


@dataclass(frozen=True)
class Variant:
    """One row of the scenario matrix: a variant's runs and its changes to the base tables."""

    runs: tuple  # (heat share, ep hours) of each run, in order; ep None without heat pumps
    techs: tuple = ()  # technologies whose generation bounds `bound` replaces
    bound: Callable | None = None  # a base generation Bounds -> the variant's
    trade: bool = True  # False empties the NTC matrix: no cross-border flows


ROBUSTNESS_RUNS = ((0.0, None), (0.25, 2.0))  # no heat pumps; 25% with a two-hour tank

SCENARIO_MATRIX = {
    "base": Variant(((0.0, None), (0.25, 0.0), (0.25, 2.0))),
    "gas_free": Variant(ROBUSTNESS_RUNS, ("ccgt",), lambda b: Bounds(0.0, b.up)),
    "half_nuc": Variant(ROBUSTNESS_RUNS, ("nuclear",), lambda b: Bounds(0.5 * b.low, 0.5 * b.up)),
    "no_coal": Variant(ROBUSTNESS_RUNS, ("hard_coal", "lignite"), lambda b: Bounds(0.0, 0.0)),
    "no_ntc": Variant(ROBUSTNESS_RUNS, trade=False),
    "wind_cap": Variant(ROBUSTNESS_RUNS, ("wind_onshore", "wind_offshore"), lambda b: Bounds(b.low, 1.5 * b.low)),
}

VARIANTS = tuple(SCENARIO_MATRIX)


class UnknownVariant(ValueError):
    pass


class ScenarioError(ValueError):
    pass


@dataclass(frozen=True)
class ScenarioSpec:
    """One scenario: heat configuration plus a bounds/NTC variant."""

    name: str
    heat_share: float
    ep: float | None  # None when no heat pumps are rolled out
    variant: str
    weather_years: tuple
    window_hours: int

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise UnknownVariant(f"variant {self.variant!r} not in {VARIANTS}")
        runs = SCENARIO_MATRIX[self.variant].runs
        if (self.heat_share, self.ep) not in runs:
            raise ScenarioError(f"{self.variant} runs {runs} do not contain {(self.heat_share, self.ep)}")
        if not 1 <= self.window_hours <= HOURS_PER_YEAR:
            raise ScenarioError(f"window_hours {self.window_hours} not in [1, {HOURS_PER_YEAR}]")
        object.__setattr__(self, "weather_years", years := tuple(int(y) for y in self.weather_years))
        if len(set(years)) < len(years):  # its cells would run, and be written, twice
            raise ScenarioError(f"weather year {max(years, key=years.count)} is listed more than once")

    @property
    def has_heat(self) -> bool:
        return self.heat_share > 0.0


def _spec_name(variant: str, share: float, ep) -> str:
    if share == 0.0:
        return f"{variant}-hp00"
    return f"{variant}-hp25-ep{int(ep)}"


def specs_for_selector(selector: str, years, hours: int) -> list:
    """Expand a CLI selector (base | <variant> | all) into specs, in matrix order."""
    if selector == "all":
        variants = VARIANTS
    elif selector in VARIANTS:
        variants = (selector,)
    else:
        raise UnknownVariant(f"unknown scenario selector {selector!r}")
    return [
        ScenarioSpec(_spec_name(variant, share, ep), share, ep, variant, tuple(years), hours)
        for variant in variants
        for share, ep in SCENARIO_MATRIX[variant].runs
    ]


def variant_tables(bounds: BoundsTable, ntc: NtcMatrix, variant: str) -> tuple[BoundsTable, NtcMatrix]:
    """The bounds and NTC tables of `variant`, made from a dataset's base tables."""
    row = SCENARIO_MATRIX[variant]
    gen = {key: row.bound(b) for key, b in bounds.gen_mw.items() if key[1] in row.techs}
    return bounds.replace(gen=gen), ntc if row.trade else NtcMatrix({})


# ---------------------------------------------------------------------------
# Instance assembly and cell execution
# ---------------------------------------------------------------------------


def make_instance(dataset: Dataset, spec: ScenarioSpec, year: int) -> SystemInstance:
    """Window each series of the year's map and assemble the instance on the variant's tables."""
    if year not in dataset.series:
        raise KeyError(f"year {year} not in dataset (have {dataset.years})")
    countries = tuple(sorted({country for country, _ in dataset.series[year]}))
    loads, availability, inflow, profiles = {}, {}, {}, {}  # profiles: (quantity, country) -> {subkeys: series}
    for (c, fullq), ser in dataset.series[year].items():
        ser = window_july_june(ser, year, spec.window_hours)
        base, subs = parse_quantity(fullq)
        if base == "electric_load_MW":
            loads[c] = ser.values
        elif base == "availability_factor":
            availability[(c, *subs)] = ser.values
        elif base == "hydro_inflow_MWh":
            inflow[c] = ser.values
        else:  # heat demand or COP
            profiles.setdefault((base, c), {})[subs] = ser

    heat_block = None
    if spec.has_heat:
        demand, cops = ({c: ProfileSet(c, q, profiles.get((q, c), {})) for c in countries}
                        for q in ("heat_demand_MWth", "cop"))
        heat_block = HeatBlock.build(HeatConfig.uniform(spec.heat_share, spec.ep, hpt="air"), demand, cops)

    bounds, ntc = variant_tables(dataset.bounds, dataset.ntc.restrict(countries), spec.variant)
    return SystemInstance(
        name=result_dirname(spec.name, year),
        countries=countries,
        window=ModelWindow(spec.window_hours),
        loads_mw=loads,
        availability=availability,
        inflow_mwh=inflow,
        techs=dataset.static.technologies,
        storages=dataset.static.storages,
        bounds=bounds,
        ntc=ntc,
        co2_price=dataset.static.co2_price_eur_per_t,
        bioenergy_cap_mwh_yr=dataset.bioenergy_cap_mwh_yr,
        heat=heat_block,
    )


@dataclass
class ScenarioResult:
    """One solved (scenario, year) cell."""

    spec: ScenarioSpec
    year: int
    status: str
    provenance: str
    synth_seed: int | None = None
    objective: float | None = None
    solved: SolvedSystem | None = None
    residual_report: ResidualReport | None = None
    trajectory_reports: dict = field(default_factory=dict)  # country -> ResidualReport
    solver_stats: dict = field(default_factory=dict)  # the solver.* manifest fields; empty if no solve returned
    error: str | None = None
    traceback: str | None = None  # of the exception that made an error cell
    lp: LinearProgram | None = None  # kept only for MPS export
    timings: dict = field(default_factory=dict)  # stage -> seconds, of the stages that ran

    @property
    def ok(self) -> bool:
        return self.status == "optimal" and self.error is None


def run_cell(dataset: Dataset, spec: ScenarioSpec, year: int, export_mps: bool = False) -> ScenarioResult:
    """Build, solve (which verifies), and validate one matrix cell. Never raises.

    A heat trajectory off its equations makes an error cell naming the
    country; a cell that fails after its solve keeps the solve's facts. With
    `export_mps`, an optimal result keeps its LP in `lp`, and
    :func:`persist_result` writes it as ``model.mps``. `timings` holds the
    wall time of each stage that ran, in seconds.
    """
    timings: dict = {}
    solve_facts: dict = {}  # the solve's ScenarioResult fields, once it returns
    cell = partial(ScenarioResult, spec, year, provenance=dataset.provenance, synth_seed=dataset.synth_seed,
                   timings=timings)
    try:
        with _stage(timings, "make_instance_s"):
            instance = make_instance(dataset, spec, year)
        with _stage(timings, "build_s"):
            lp = build_model(instance)
        with _stage(timings, "solve_s"):
            solution = solve(lp)
        solve_facts["solver_stats"] = _stats(solution)
        if solution.status != "optimal":
            return cell(solution.status, **solve_facts)
        solve_facts["residual_report"] = solution.residuals
        with _stage(timings, "extract_s"):
            solved = extract_solved(instance, lp, solution)
        with _stage(timings, "validate_s"):  # solved.heat is empty without heat pumps
            hb = instance.heat
            traj_reports = {c: validate_trajectory(traj, hb.fleet, hb.targets_mw.get(c, {}), hb.cops[c], c)
                            for c, traj in solved.heat.items()}
        for c, report in traj_reports.items():  # the tolerance solve() allows an optimum, in MW; NaN fails it
            if not report.within(_OPTIMUM_CHECK_TOL * MW_PER_GW):
                raise ValueError(f"{c}: heat trajectory off its equations by {report.max_violation:.3e} MW")
        return cell("optimal", objective=solution.objective, solved=solved, trajectory_reports=traj_reports,
                    lp=lp if export_mps else None, **solve_facts)
    except Exception as exc:  # cell isolation: record, don't abort the batch
        return cell("error", error=f"{type(exc).__name__}: {exc}", traceback=traceback.format_exc(), **solve_facts)


@contextmanager
def _stage(timings: dict, name: str):
    """Record the wall time of the enclosed stage in `timings[name]`, also when it raises."""
    start = time.perf_counter()
    try:
        yield
    finally:
        timings[name] = time.perf_counter() - start


def _stats(solution: Solution) -> dict:
    """The ``solver.*`` manifest fields of one solve, by leaf name."""
    return {f.path.removeprefix("solver."): f.get(solution) for f in MANIFEST_FIELDS if f.path.startswith("solver.")}


def run_matrix(dataset: Dataset, specs, out_dir=None, export_mps: bool = False, jobs: int = 1) -> list:
    """Run every (spec, weather year) cell; persist when `out_dir` given.

    Cells are independent; failures are recorded per cell and the batch
    always completes. A cell whose files cannot be written becomes an error
    cell, and `out_dir` lacks its directory. Two cells of one directory name
    raise ScenarioError before any cell runs. With `jobs` > 1 the cells run
    on that many threads of this process (HiGHS releases the interpreter
    lock while it solves), and results still come back in (spec, year)
    order. With `export_mps` and an `out_dir`, every optimal cell also gets
    ``model.mps`` and its name-map sidecar, written from the LP the cell
    was solved on.
    """
    out_dir = Path(out_dir) if out_dir is not None else None

    def run(cell) -> ScenarioResult:
        result = run_cell(dataset, *cell, export_mps=export_mps)
        if out_dir is not None:
            try:
                persist_result(result, out_dir)
            except Exception as exc:  # a cell that cannot be written is an error cell
                result = replace(result, status="error", error=f"{type(exc).__name__}: {exc}",
                                 traceback=traceback.format_exc())
        result.lp = None  # already written; not held by the batch
        return result

    cells = [(spec, year) for spec in specs for year in spec.weather_years]
    names = [result_dirname(spec.name, year) for spec, year in cells]
    if len(set(names)) < len(names):  # the copies would share, and clobber, one directory
        raise ScenarioError(f"cell {max(names, key=names.count)} is listed more than once")
    if jobs > 1 and len(cells) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(run, cells))
    return [run(cell) for cell in cells]


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CellTable:
    """The layout of one result CSV: key columns, value columns, hourly or not.

    A row is its key fields, then its values as float reprs. An hourly table
    leads with an ``hour`` column and holds each key as one contiguous run
    of hours ``0..H-1``. The analysis CSVs are declared the same way.
    """

    file: str
    keys: tuple
    values: tuple
    hourly: bool

    @property
    def columns(self) -> tuple:
        return ("hour",) * self.hourly + self.keys + self.values


CAPACITIES = CellTable("capacities.csv", ("country", "kind", "name"), ("value",), False)
DISPATCH = CellTable("dispatch.csv", ("country", "kind", "name"), ("value_mw",), True)
FLOWS = CellTable("flows.csv", ("from", "to"), ("value_mw",), True)
HEAT = CellTable("heat.csv", ("country", "building_type", "sink", "heat_pump_type"),
                 tuple(column for _, column in TRAJECTORY_FIELDS.values()), True)
COSTS = CellTable("costs.csv", ("component",), ("value_eur",), False)
CELL_TABLES = (CAPACITIES, DISPATCH, FLOWS, HEAT, COSTS)


@dataclass(frozen=True)
class ManifestField:
    """One field of a cell's ``manifest.json``: how it is written, checked, read and compared."""

    path: str  # "scenario.name" is manifest["scenario"]["name"]; at most one dot
    types: tuple  # the Python types json.load may give its value
    get: Callable  # of the ScenarioResult; a solver.* field's of the Solution, into ScenarioResult.solver_stats
    attr: str | None = None  # the PersistedResult attribute that load_result checks and sets from it
    varies: bool = False  # differs between identical runs, so manifest_equal skips it
    positive: bool = False  # an int of at least 1; an absent one reads as None


MANIFEST_FIELDS = (
    ManifestField("schema", (str,), lambda r: MANIFEST_SCHEMA),
    ManifestField("scenario.name", (str,), attrgetter("spec.name"), "name"),
    ManifestField("scenario.heat_share", (int, float), attrgetter("spec.heat_share"), "heat_share"),
    ManifestField("scenario.ep", (int, float, NoneType), attrgetter("spec.ep"), "ep"),
    ManifestField("scenario.variant", (str,), attrgetter("spec.variant"), "variant"),
    ManifestField("scenario.window_hours", (int,), attrgetter("spec.window_hours"), "hours", positive=True),
    ManifestField("year", (int,), attrgetter("year"), "year"),
    ManifestField("status", (str,), attrgetter("status"), "status"),
    ManifestField("objective", (float, NoneType), attrgetter("objective")),
    ManifestField("error", (str, NoneType), attrgetter("error")),
    ManifestField("traceback", (str, NoneType), attrgetter("traceback")),
    ManifestField("provenance", (str,), attrgetter("provenance")),
    ManifestField("synth_seed", (int, NoneType), attrgetter("synth_seed")),
    ManifestField("solver.backend", (str,), attrgetter("backend")),
    ManifestField("solver.status", (str,), attrgetter("status")),
    ManifestField("solver.iterations", (int,), attrgetter("iterations")),
    ManifestField("solver.wall_time_s", (float,), attrgetter("wall_time_s"), varies=True),
    ManifestField("solver.highs_run_time_s", (float,), attrgetter("highs_run_time_s"), varies=True),
    ManifestField("solver.max_residual", (float, NoneType),
                  lambda s: None if np.isnan(s.max_residual) else s.max_residual),
    ManifestField("solver.rows", (int,), attrgetter("lp.num_rows")),
    ManifestField("solver.cols", (int,), attrgetter("lp.num_cols")),
    ManifestField("solver.nnz", (int,), lambda s: s.lp.matrix().nnz),
    ManifestField("solver.dropped_entries", (int,), attrgetter("dropped_entries")),
    ManifestField("timings", (dict,), attrgetter("timings"), varies=True),  # stage -> seconds, of the stages that ran
    ManifestField("residuals", (dict,), lambda r: {  # constraint family -> max, mean, rows
        name: {"max": fam.max_violation, "mean": fam.mean_violation, "rows": fam.rows}
        for name, fam in (r.residual_report.families if r.residual_report else {}).items()}),
    ManifestField("heat_trajectory_max_violation", (dict,),
                  lambda r: {c: rep.max_violation for c, rep in r.trajectory_reports.items()}),
    ManifestField("ntc_pairs", (list,),
                  lambda r: sorted(f"{a}>{b}" for a, b in r.solved.instance.ntc.limits_mw) if r.solved else []),
)


def _manifest(result: ScenarioResult) -> dict:
    """A cell's manifest: each field of :data:`MANIFEST_FIELDS` at its path."""
    manifest: dict = {"solver": result.solver_stats}  # the solver.* fields, taken once per solve
    for f in MANIFEST_FIELDS:
        section, _, leaf = f.path.rpartition(".")
        if section != "solver":
            (manifest.setdefault(section, {}) if section else manifest)[leaf] = f.get(result)
    return manifest


def _read_field(manifest: dict, f: ManifestField, where: Path):
    """The value of `f` in a loaded manifest; raises ValueError naming `where` if it is absent or mistyped."""
    section, _, leaf = f.path.rpartition(".")
    node = manifest.get(section) if section else manifest
    if not isinstance(node, dict):
        raise ValueError(f"{where}: field {section} is not a mapping")
    if leaf not in node and not f.positive:
        raise ValueError(f"{where}: no field {f.path}")
    value = node.get(leaf)
    if type(value) not in f.types or f.positive and value < 1:
        kinds = "a positive integer" if f.positive else " or ".join(t.__name__ for t in f.types)
        raise ValueError(f"{where}: field {f.path} is {value!r}, not {kinds}")
    return value


def manifest_equal(a: dict, b: dict) -> bool:
    """Whether two manifests agree on every field but those that vary between identical runs."""
    varying = {f.path for f in MANIFEST_FIELDS if f.varies}

    def steady(node: dict, prefix: str = "") -> dict:  # `node`, at path `prefix`, without its varying fields
        return {key: steady(value, f"{prefix}{key}.") if isinstance(value, dict) else value
                for key, value in node.items() if prefix + key not in varying}

    return json.dumps(steady(a), sort_keys=True) == json.dumps(steady(b), sort_keys=True)


def result_dirname(spec_name: str, year: int) -> str:
    return f"{spec_name}__y{year}"


def persist_result(result: ScenarioResult, out_dir: Path) -> Path:
    """Write one cell's directory atomically (write temp, then rename)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    final = out_dir / result_dirname(result.spec.name, result.year)
    tmp = out_dir / f".{final.name}.tmp-{os.getpid()}"  # one per cell, so threads never share it
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir()
    try:
        _write_cell_files(result, tmp)
        if final.exists():
            shutil.rmtree(final)
        os.replace(tmp, final)
    finally:
        if tmp.exists():
            shutil.rmtree(tmp, ignore_errors=True)
    return final


def _cell_blocks(cell: CellView) -> dict:
    """Each table's ``(key, values)`` blocks of a solved or a loaded cell, in file order."""
    return {
        CAPACITIES: [((c, *kind_name), (mw,)) for c, caps in sorted(cell.capacities_mw.items())
                     for kind_name, mw in sorted(caps.items())],
        DISPATCH: [(key, (arr,)) for key, arr in cell.dispatch_mw.items()],
        FLOWS: [(link, (arr,)) for link, arr in sorted(cell.flows_mw.items())],
        HEAT: [((c, *unit), traj.unit_arrays(unit)) for c, traj in sorted(cell.heat.items()) for unit in traj.keys],
        COSTS: [((component,), (value,)) for component, value in cell.costs_eur.items()],
    }


def _table_chunks(table: CellTable, blocks, hours: int):
    """CSV text of one table: the header, then one chunk per block.

    Key fields are checked ids and values are float reprs, so no field is
    quoted; a key that would need quoting raises.
    """
    yield ",".join(table.columns) + "\n"
    prefixes = [f"{h}," for h in range(hours)]
    for key, values in blocks:
        key_text = ",".join(map(str, key))
        if key_text.count(",") >= len(key) or any(ch in key_text for ch in '"\r\n'):
            raise ValueError(f"{table.file}: key {key!r} would need CSV quoting")
        if not table.hourly:  # one row of scalars
            yield f"{key_text},{','.join(repr(float(v)) for v in values)}\n"
        else:
            value_texts = (map(repr, np.asarray(v, dtype=float).ravel().tolist()) for v in values)
            fields = map(",".join, zip(*value_texts, strict=True))
            yield "\n".join(map(f"{key_text},".join, zip(prefixes, fields, strict=True))) + "\n"


def write_table(path, table: CellTable, blocks, hours: int = 1) -> Path:
    """Write `table` to `path` from its ``(key, values)`` blocks; see :func:`_table_chunks`."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        fh.writelines(_table_chunks(table, blocks, hours))
    return path


def write_cell_tables(cell_dir: Path, cell: CellView | None) -> None:
    """Write the tables of :data:`CELL_TABLES` from a solved or a loaded cell; without one, their headers."""
    blocks = _cell_blocks(cell) if cell is not None else {}
    for table in CELL_TABLES:
        write_table(cell_dir / table.file, table, blocks.get(table, ()), cell.hours if blocks else 1)


def _write_cell_files(result: ScenarioResult, cell_dir: Path) -> None:
    write_cell_tables(cell_dir, result.solved)
    manifest = json.dumps(_manifest(result), indent=1, sort_keys=True, allow_nan=False)  # NaN is not JSON
    (cell_dir / "manifest.json").write_text(manifest + "\n")
    if result.lp is not None:
        write_mps(result.lp, cell_dir / "model.mps")


# ---------------------------------------------------------------------------
# Read-back for analysis
# ---------------------------------------------------------------------------


@dataclass
class PersistedResult(CellView):
    """A result directory loaded back for analysis; it holds the tables as a solved cell holds them."""

    path: Path
    manifest: dict
    # The manifest fields that analysis reads: load_result checks them and sets them here.
    name: str
    variant: str
    heat_share: float
    ep: float | None
    year: int
    hours: int
    status: str
    capacities_mw: dict  # country -> {(kind, name): value}
    dispatch_mw: dict  # (country, kind, name) -> np.ndarray
    flows_mw: dict  # (from, to) -> np.ndarray
    heat: dict  # country -> HeatTrajectory
    costs_eur: dict  # component -> value


def _read_table(cell_dir: Path, table: CellTable, hours: int) -> dict:
    """Map each key of a saved table to its values, one per value column.

    A value is a float, or an array of `hours` floats in an hourly table.
    Raises ValueError naming the file where it departs from `table`.
    """
    path = cell_dir / table.file
    header, _, body = path.read_text().partition("\n")
    names = table.columns
    if header != ",".join(names):
        raise ValueError(f"{path}: header {header!r} is not {','.join(names)!r}")
    *rows, last = body.split("\n")
    if last or set(map(str.count, rows, repeat(","))) - {len(names) - 1}:
        raise ValueError(f"{path}: a row does not have the {len(names)} fields of the header")
    fields = body.replace("\n", ",").split(",")[:-1]
    columns = [fields[i :: len(names)] for i in range(len(names))]
    key_columns = columns[table.hourly : table.hourly + len(table.keys)]
    try:
        values = [list(map(float, col)) for col in columns[table.hourly + len(table.keys) :]]
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if table.hourly:
        starts = [col[::hours] for col in key_columns]  # the key of each run of `hours` rows
        runs = len(rows) // hours
        if columns[0] != [str(h) for h in range(hours)] * runs or any(
            col[h::hours] != first for col, first in zip(key_columns, starts) for h in range(1, hours)
        ):
            raise ValueError(f"{path}: each key must be one run of hours 0..{hours - 1}")
        key_columns, values = starts, [np.array(col).reshape(runs, hours) for col in values]
    keys = list(zip(*key_columns))
    if len(set(keys)) != len(keys):
        raise ValueError(f"{path}: a key appears in more than one run of rows")
    return dict(zip(keys, zip(*values)))


def load_result(cell_dir) -> PersistedResult:
    cell_dir = Path(cell_dir)
    manifest_path = cell_dir / "manifest.json"
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{manifest_path}: {exc}") from None
    if not isinstance(manifest, dict) or manifest.get("schema") != MANIFEST_SCHEMA:
        raise ValueError(f"{manifest_path}: not a {MANIFEST_SCHEMA} manifest")
    read = {f.attr: _read_field(manifest, f, manifest_path) for f in MANIFEST_FIELDS if f.attr}
    caps, dispatch, flows, heat, costs = (_read_table(cell_dir, table, read["hours"]).items() for table in CELL_TABLES)
    capacities: dict = {}
    for (c, kind, name), (mw,) in caps:
        capacities.setdefault(c, {})[(kind, name)] = mw
    dispatch_mw = {key: arr for key, (arr,) in dispatch}
    no_load = sorted({c for c, _, _ in dispatch_mw if (c, "load", "electric") not in dispatch_mw})
    if no_load:
        raise ValueError(f"{cell_dir / DISPATCH.file}: no load,electric run for {', '.join(no_load)}")
    trajectories: dict = {}  # country -> HeatTrajectory; a unit's arrays come in TRAJECTORY_FIELDS order
    for (c, *unit), arrays in heat:
        traj = trajectories.setdefault(c, HeatTrajectory({}, {}, {}, {}))
        for f, arr in zip(TRAJECTORY_FIELDS, arrays):
            getattr(traj, f)[tuple(unit)] = arr
    costs_eur = {component: value for (component,), (value,) in costs}
    missing = [component for component in COST_COMPONENTS if component not in costs_eur]
    if read["status"] == "optimal" and missing:  # an unsolved cell writes no costs
        raise ValueError(f"{cell_dir / COSTS.file}: no {', '.join(missing)} row")
    return PersistedResult(
        path=cell_dir, manifest=manifest, **read, capacities_mw=capacities, dispatch_mw=dispatch_mw,
        flows_mw={key: arr for key, (arr,) in flows}, heat=trajectories, costs_eur=costs_eur,
    )


def load_results(out_dir) -> list:
    """Every cell directory of `out_dir`, loaded; a dot-named one (a write cut short) is skipped."""
    cells = [cell for cell in sorted(Path(out_dir).iterdir()) if not cell.name.startswith(".")]
    return [load_result(cell) for cell in cells if cell.is_dir() and (cell / "manifest.json").exists()]
