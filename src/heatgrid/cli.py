"""Command-line entry point: ``heatgrid ingest | run | analyze``.

Exit codes: 0 success; 1 ingestion/validation failure; 2 at least one
scenario cell not optimal; 3 analysis asked for paired reports without a
usable (with, without heat pumps) result pair.

All randomness flows from one ``--synth-seed`` recorded in every cell
manifest, so a rerun with identical flags reproduces identical result
CSVs byte for byte (timestamps live only in manifests, and none are
written by default).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from .dataset import build_ingested_dataset, build_synth_dataset
from .ingest import csv_chunks, ingest_file
from .scenarios import load_results, run_matrix, specs_for_selector
from .series import SeriesError
from .staticdata import load_static

DEFAULT_SYNTH_COUNTRIES = "AT,DE,FR"
SYNTH_FIRST_YEAR = 2009

CACHE_SERIES = "series.csv"
CACHE_MANIFEST = "cache.json"
CACHE_SCHEMA = "heatgrid-cache-v1"


def _parse_years(text: str) -> list:
    try:
        if text.startswith("synth:"):
            years = [SYNTH_FIRST_YEAR + i for i in range(int(text.split(":", 1)[1]))]
        else:
            years = [int(y) for y in text.split(",") if y]
    except ValueError:
        raise ValueError(f"--years {text!r} is neither synth:N nor a comma list of years") from None
    if not years:
        raise ValueError(f"--years {text!r} names no weather year")
    return years


def cmd_ingest(args) -> int:
    series_map = {}
    try:
        for path in args.files:
            part = ingest_file(path)
            dup = set(part) & set(series_map)
            if dup:
                raise SeriesError(f"{path}: duplicate series {sorted(dup)[:3]}")
            series_map.update(part)
    except (OSError, ValueError) as exc:  # an unreadable file; a bad row or series
        print(f"ingest error: {exc}", file=sys.stderr)
        return 1
    if not series_map:
        print("ingest error: no series found", file=sys.stderr)
        return 1

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    with (out / CACHE_SERIES).open("wb") as fh:
        for data in map(str.encode, csv_chunks(series_map)):
            fh.write(data)
            digest.update(data)
    manifest = {
        "schema": CACHE_SCHEMA,
        "sha256": digest.hexdigest(),
        "series": len(series_map),
        "countries": sorted({c for c, _ in series_map}),
    }
    (out / CACHE_MANIFEST).write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    for country in manifest["countries"]:
        quantities = sorted(q for c, q in series_map if c == country)
        hours = len(series_map[(country, quantities[0])])
        print(f"  {country}: {len(quantities)} series x {hours} hours")
    print(f"cache written to {out} ({len(series_map)} series, sha256 {manifest['sha256'][:12]})")
    return 0


def _build_dataset(args, years: list):
    static = load_static(args.static) if args.static else load_static()
    if args.synth_seed is not None:
        countries = args.countries.split(",")
        return build_synth_dataset(args.synth_seed, countries, years, args.hours, static=static)
    if not args.dataset:
        raise ValueError("either --dataset <cache dir> or --synth-seed is required")
    cache = Path(args.dataset)
    series_map = ingest_file(cache / CACHE_SERIES)
    _check_cache(cache)
    return build_ingested_dataset(series_map, years, static=static)


def _check_cache(cache: Path) -> None:
    """Raise unless the cache's manifest records the SHA-256 of its series file's bytes, as ingest wrote it."""
    path = cache / CACHE_MANIFEST
    try:
        manifest = json.loads(path.read_bytes())
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ValueError(f"{path}: not a {CACHE_SCHEMA} manifest: {exc}") from None
    if not isinstance(manifest, dict) or manifest.get("schema") != CACHE_SCHEMA:
        raise ValueError(f"{path}: not a {CACHE_SCHEMA} manifest")
    with (cache / CACHE_SERIES).open("rb") as fh:
        digest = hashlib.file_digest(fh, "sha256").hexdigest()
    if manifest.get("sha256") != digest:
        raise ValueError(f"{path}: its sha256 does not match the bytes of {CACHE_SERIES}")


def cmd_run(args) -> int:
    try:
        if args.jobs < 1:
            raise ValueError(f"--jobs {args.jobs} is below 1")
        years = _parse_years(args.years)
        specs = specs_for_selector(args.scenario, years, args.hours)
        dataset = _build_dataset(args, years)
    except (OSError, ValueError) as exc:  # unreadable inputs; bad flags, series or static data
        print(f"run error: {exc}", file=sys.stderr)
        return 1
    out_dir = Path(args.out)
    results = run_matrix(
        dataset, specs, out_dir=out_dir, export_mps=args.export_mps, jobs=args.jobs
    )

    failures = 0
    for result in results:
        line = f"{result.spec.name} year={result.year} status={result.status}"
        if result.ok:
            line += (
                f" objective={result.objective:.6e}"
                f" max_residual={result.solver_stats['max_residual']:.2e}"
                f" backend={result.solver_stats['backend']}"
            )
        elif result.error:
            line += f" error={result.error}"
            failures += 1
        else:
            failures += 1
        print(line)
    print(f"{len(results) - failures}/{len(results)} cells optimal; results in {out_dir}")
    return 0 if failures == 0 else 2


def cmd_analyze(args) -> int:
    from . import analysis

    try:
        if args.top_n < 1:
            raise ValueError(f"--top-n {args.top_n} is below 1")
        results = load_results(args.results)
        skipped = [r for r in results if r.status != "optimal"]
        results = [r for r in results if r.status == "optimal"]
        if skipped:
            print(f"skipping {len(skipped)} non-optimal cell(s)", file=sys.stderr)
        if not results:
            print(f"no optimal results found under {args.results}", file=sys.stderr)
            return 1
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        analysis.emit_rldc_csv(results, out / analysis.RLDC.file, top_n=args.top_n)
        analysis.emit_peaks_csv(results, out / analysis.PEAKS.file)
        analysis.emit_events_csv(results, out / analysis.EVENTS.file)
        analysis.emit_daily_heat_csv(results, out / analysis.HEAT_DAILY.file)
        analysis.emit_cost_report_json(results, out / "costs.json")
        pairs = analysis.pair_results(results)
        if pairs:
            analysis.emit_firm_delta_csv(results, out / analysis.FIRM_DELTA.file)
    except (OSError, ValueError) as exc:  # no such directory; a cell not in the layout; a key needing quotes
        print(f"analysis error: {exc}", file=sys.stderr)
        return 1
    if args.delta and not pairs:
        print(
            "analysis error: --delta needs paired results (a 0% heat-pump "
            "baseline and a heat-pump run of the same variant and year)",
            file=sys.stderr,
        )
        return 3
    print(f"analysis written to {out} ({len(results)} results, {len(pairs)} pairs)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heatgrid",
        description="Hourly multi-country power-sector expansion with heat pumps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="validate CSV inputs and write a canonical cache")
    p_ingest.add_argument("files", nargs="+", help="input CSV files")
    p_ingest.add_argument("--out", required=True, help="cache directory")
    p_ingest.set_defaults(func=cmd_ingest)

    p_run = sub.add_parser("run", help="run a scenario matrix")
    p_run.add_argument("--dataset", help="cache directory from `heatgrid ingest`")
    p_run.add_argument("--synth-seed", type=int, default=None, help="generate synthetic data")
    p_run.add_argument("--countries", default=DEFAULT_SYNTH_COUNTRIES, help="synthetic countries")
    p_run.add_argument("--static", default=None, help="alternative static-data YAML")
    p_run.add_argument("--scenario", default="base", help="base | all | <variant>")
    p_run.add_argument("--years", default="synth:1", help="synth:N or comma list (2009,2010)")
    p_run.add_argument("--hours", type=int, default=336, help="window length, starting July 1")
    p_run.add_argument("--out", required=True, help="results directory")
    p_run.add_argument("--jobs", type=int, default=1, help="parallel matrix cells")
    p_run.add_argument("--export-mps", action="store_true", help="write model.mps per cell")
    p_run.set_defaults(func=cmd_run)

    p_an = sub.add_parser("analyze", help="emit plot-ready diagnostics from results")
    p_an.add_argument("--results", required=True, help="results directory from `heatgrid run`")
    p_an.add_argument("--out", required=True, help="analysis output directory")
    p_an.add_argument("--top-n", type=int, default=50, help="RLDC hours to keep")
    p_an.add_argument("--delta", action="store_true", help="require paired firm/heat-cost reports")
    p_an.set_defaults(func=cmd_analyze)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
