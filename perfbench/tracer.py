"""Spans and counts around heatgrid's public functions, recorded from outside.

The tracer replaces a public function by a timing wrapper in every loaded
``heatgrid`` module that refers to it, so calls made inside the package
(``run_cell`` calling ``build_model``, ``export_mps`` calling
``mangle_names``) are recorded as well as the benchmark's own calls. The
program is not edited; ``uninstall`` puts the original functions back.

Each span records its layer name, a label (the cell it served, where the
arguments name one), start and end on ``time.perf_counter``, the index of
the span that caused it, the process's peak RSS before and after, and the
counts taken from its result. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import resource
import sys
import time
from collections import Counter
from pathlib import Path

ROW_FAMILIES = ("bal", "gcap", "sdyn", "scap", "sin", "sout", "hdyn", "hcop", "bio")
COL_FAMILIES = (
    "cap", "gen", "sce", "scc", "scd", "ch", "dis", "soc", "spl", "flw", "ho", "hi", "hl", "e",
)

# Layer time metrics: metric name -> span name.
LAYER_TIMES = {
    "scenarios.make_instance_s": "scenarios.make_instance",
    "scenarios.persist_result_s": "scenarios.persist_result",
    "scenarios.load_results_s": "scenarios.load_results",
    "model.build_model_s": "model.build_model",
    "model.extract_solved_s": "model.extract_solved",
    "solver.solve_s": "solver.solve",
    "solver.verify_s": "solver.verify",
    "heat.validate_trajectory_s": "heat.validate_trajectory",
    "analysis.emit_s": "analysis.emit",
    "mps.mangle_names_s": "mps.mangle_names",
    "mps.export_mps_s": "mps.export_mps",
    "mps.import_mps_s": "mps.import_mps",
}

# Layer counts: metric name -> unit; summed over the spans of a round.
LAYER_COUNTS = {
    "scenarios.bytes_written": "count",
    "solver.iterations": "count",
    "mps.bytes": "count",
    "lp.rows": "count",
    "lp.cols": "count",
    "lp.nnz": "count",
    **{f"lp.rows.{f}": "count" for f in ROW_FAMILIES},
    **{f"lp.cols.{f}": "count" for f in COL_FAMILIES},
}


def peak_rss_mb() -> float:
    """High-water mark of this process's resident set (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _tree_bytes(path) -> int:
    path = Path(path)
    if path.is_file():
        return path.stat().st_size
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _prefix_counts(names) -> Counter:
    return Counter(name[: name.index("[")] for name in names)


def _count_lp(args, lp) -> dict:
    counts = {"lp.rows": lp.num_rows, "lp.cols": lp.num_cols, "lp.nnz": lp.stats()["nnz"]}
    rows = _prefix_counts(lp.row_names)
    cols = _prefix_counts(lp.col_names)
    counts.update({f"lp.rows.{f}": rows.get(f, 0) for f in ROW_FAMILIES})
    counts.update({f"lp.cols.{f}": cols.get(f, 0) for f in COL_FAMILIES})
    return counts


def _count_persist(args, cell_dir) -> dict:
    return {"scenarios.bytes_written": _tree_bytes(cell_dir)}


def _count_solve(args, solution) -> dict:
    return {"solver.iterations": int(solution.iterations)}


def _count_export(args, path) -> dict:
    return {"mps.bytes": _tree_bytes(path) + _tree_bytes(str(path) + ".names.json")}


def _cell_of_spec(args) -> str:
    _dataset, spec, year = args[:3]
    return f"{spec.name}__y{year}"


def _name_of_first(args) -> str:
    return getattr(args[0], "name", "")


def _cell_of_result(args) -> str:
    return f"{args[0].spec.name}__y{args[0].year}"


# (module, function, span name, label from args, counts from (args, result))
TRACE_POINTS = (
    ("heatgrid.dataset", "build_synth_dataset", "dataset.build_synth_dataset", None, None),
    ("heatgrid.scenarios", "make_instance", "scenarios.make_instance", _cell_of_spec, None),
    ("heatgrid.scenarios", "persist_result", "scenarios.persist_result", _cell_of_result, _count_persist),
    ("heatgrid.scenarios", "load_results", "scenarios.load_results", None, None),
    ("heatgrid.model", "build_model", "model.build_model", _name_of_first, _count_lp),
    ("heatgrid.model", "extract_solved", "model.extract_solved", _name_of_first, None),
    ("heatgrid.solver", "solve", "solver.solve", _name_of_first, _count_solve),
    ("heatgrid.solver", "verify", "solver.verify", _name_of_first, None),
    ("heatgrid.heat", "validate_trajectory", "heat.validate_trajectory", None, None),
    ("heatgrid.analysis", "emit_rldc_csv", "analysis.emit", None, None),
    ("heatgrid.analysis", "emit_peaks_csv", "analysis.emit", None, None),
    ("heatgrid.analysis", "emit_events_csv", "analysis.emit", None, None),
    ("heatgrid.analysis", "emit_daily_heat_csv", "analysis.emit", None, None),
    ("heatgrid.analysis", "emit_firm_delta_csv", "analysis.emit", None, None),
    ("heatgrid.analysis", "emit_cost_report_json", "analysis.emit", None, None),
    ("heatgrid.mps", "mangle_names", "mps.mangle_names", None, None),
    ("heatgrid.mps", "export_mps", "mps.export_mps", None, _count_export),
    ("heatgrid.mps", "import_mps", "mps.import_mps", None, None),
)


class Tracer:
    """In-memory spans around the functions named in ``TRACE_POINTS``."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def install(self) -> "Tracer":
        for module_name, attr, span, label, count in TRACE_POINTS:
            original = getattr(sys.modules[module_name], attr)
            wrapped = self._wrap(original, span, label, count)
            for name, module in list(sys.modules.items()):
                if name != "heatgrid" and not name.startswith("heatgrid."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
                        self._undo.append((module, key, original))
        return self

    def uninstall(self) -> None:
        for module, key, original in reversed(self._undo):
            setattr(module, key, original)
        self._undo.clear()

    def _wrap(self, original, span, label, count):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            record = {
                "name": span,
                "label": label(args) if label else "",
                "parent": tracer._stack[-1] if tracer._stack else None,
                "rss0_mb": peak_rss_mb(),
                "start": time.perf_counter(),
            }
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(record)
            try:
                result = original(*args, **kwargs)
            finally:
                record["end"] = time.perf_counter()
                record["rss1_mb"] = peak_rss_mb()
                tracer._stack.pop()
            if count:
                record["counts"] = count(args, result)
            return result

        return traced

    def within(self, intervals) -> list:
        """Spans that lie wholly inside one of the (start, end) intervals."""
        return [
            s for s in self.spans
            if any(t0 <= s["start"] and s["end"] <= t1 for t0, t1 in intervals)
        ]


def layer_metrics(tracer: Tracer, setup_intervals, round_intervals, rounds: int) -> dict:
    """Per-layer metrics of one traced run, as (value, unit), per timed round.

    Times are inclusive: ``mps.export_mps`` contains ``mps.mangle_names``.
    No traced function calls another of the same span name, so summing
    spans by name counts no time twice. The set-up figure is the median
    set-up, ``model.build_rss_mb`` the largest rise of the peak RSS across
    one build (later builds of the same size raise it no further), and
    ``trace.top_level_share`` the part of the timed rounds that spans
    without a parent cover.
    """
    setup = sorted(
        s["end"] - s["start"]
        for s in tracer.within(setup_intervals)
        if s["name"] == "dataset.build_synth_dataset"
    )
    totals: Counter = Counter()
    counts: Counter = Counter()
    top_level = build_rss = 0.0
    for s in tracer.within(round_intervals):
        duration = s["end"] - s["start"]
        totals[s["name"]] += duration
        if s["parent"] is None:
            top_level += duration
        counts.update(s.get("counts", {}))
        if s["name"] == "model.build_model":
            build_rss = max(build_rss, s["rss1_mb"] - s["rss0_mb"])
    round_time = sum(t1 - t0 for t0, t1 in round_intervals)

    out = {"dataset.build_synth_dataset_s": (setup[len(setup) // 2], "s")}
    for metric, span in LAYER_TIMES.items():
        out[metric] = (totals[span] / rounds, "s")
    out["model.build_rss_mb"] = (build_rss, "MB")
    for metric, unit in LAYER_COUNTS.items():
        out[metric] = (counts[metric] / rounds, unit)
    out["trace.top_level_share"] = (100.0 * top_level / round_time, "%")
    return out
