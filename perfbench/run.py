"""Benchmark of the heatgrid scenario pipeline.

One workload, in this process:

    python3 perfbench/run.py --workload desk_base --seed 7 --seconds 5 --trace 0

prints progress, then as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.

Every workload, each in a process of its own, untraced and then traced:

    python3 perfbench/run.py [--seed 7] [--seconds 5]

prints every metric with its unit, the tracing overhead and the stage
table of the desk and full-year cells, and writes ``BENCH_<date>.json``
next to this file. Run from the root of a checkout; heatgrid is imported
from its ``src`` directory and nothing is installed.
"""

from __future__ import annotations

import argparse
import datetime
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# Set-up runs at least MIN_SETUPS times and until SETUP_SECONDS have passed;
# setup_s is the median.
MIN_SETUPS = 3
SETUP_SECONDS = 2.0
WORKLOADS = ("desk_base", "variant_sweep", "fullyear_build", "mps_export")


def import_heatgrid() -> None:
    """Import heatgrid from this checkout's sources, and from nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import heatgrid
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import heatgrid from {src}: {exc}") from None
    if Path(heatgrid.__file__).resolve().parent.parent != src:
        raise SystemExit(f"perfbench: heatgrid imported from {heatgrid.__file__}, not from {src}")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import tracer as tracing
    import workloads

    workload = workloads.all_workloads()[name]
    workdir = OUT / f"run-{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        workloads.warm_up(workdir / "warmup")
        tracer = tracing.Tracer().install() if trace else None

        setup_times, setup_intervals = [], []
        while len(setup_times) < MIN_SETUPS or sum(setup_times) < SETUP_SECONDS:
            start = time.perf_counter()
            dataset = workload.setup(seed)
            end = time.perf_counter()
            setup_times.append(end - start)
            setup_intervals.append((start, end))

        round_times, round_intervals = [], []
        attempted = failed = 0
        problems: list = []
        peak_rss = None
        while not round_times or sum(round_times) < seconds:
            gc.collect()  # start every round from the same heap, without set-up's garbage
            clock = workloads.StageClock()
            state = workload.round(dataset, workdir / f"round{len(round_times)}", clock)
            if peak_rss is None:
                peak_rss = tracing.peak_rss_mb()  # before any check runs
            round_times.append(clock.seconds)
            round_intervals += clock.intervals
            outcome = workload.check(seed, dataset, state)
            del state
            shutil.rmtree(workdir / f"round{len(round_times) - 1}", ignore_errors=True)
            attempted += outcome.attempted
            failed += outcome.failed
            problems += outcome.problems
            print(
                f"{name}: round {len(round_times)} {clock.seconds:.3f} s, "
                f"{outcome.attempted - outcome.failed}/{outcome.attempted} operations ok, "
                f"{len(outcome.problems)} problems",
                file=sys.stderr,
            )

        if tracer is not None:
            tracer.uninstall()
            layer = tracing.layer_metrics(tracer, setup_intervals, round_intervals, len(round_times))
            layer["trace.wall_s"] = (statistics.median(round_times), "s")
            OUT.mkdir(exist_ok=True)
            dump = OUT / f"trace-{name}-seed{seed}.json"
            dump.write_text(json.dumps({"workload": name, "seed": seed, "spans": tracer.spans}))
            metrics = layer
        else:
            metrics = {
                "setup_s": (statistics.median(setup_times), "s"),
                "wall_s": (statistics.median(round_times), "s"),
                "peak_rss_mb": (peak_rss, "MB"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in problems[:50]:
        print(f"{name}: CHECK FAILED: {problem}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }


def _spawn(name: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench: {' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def _stage_table(seed: int) -> list:
    """Per-cell stage times of the traced desk and full-year runs (the ROADMAP baseline table)."""
    rows = []
    for name in ("desk_base", "fullyear_build"):
        spans = json.loads((OUT / f"trace-{name}-seed{seed}.json").read_text())["spans"]
        setups = sorted(s["end"] - s["start"] for s in spans if s["name"] == "dataset.build_synth_dataset")
        cells: dict = {}
        for s in spans:
            if not s["label"]:
                continue
            cell = cells.setdefault(s["label"], {})
            cell[s["name"]] = cell.get(s["name"], 0.0) + s["end"] - s["start"]
            if s["name"] == "model.build_model":
                cell["rows"], cell["cols"] = s["counts"]["lp.rows"], s["counts"]["lp.cols"]
                cell["build_rss_mb"] = s["rss1_mb"] - s["rss0_mb"]
        for label, cell in sorted(cells.items()):
            if "rows" in cell:
                rows.append({"workload": name, "cell": label, "dataset_s": setups[len(setups) // 2], **cell})
    return rows


def run_all(seed: int, seconds: float) -> None:
    import numpy
    import scipy

    report = {
        "date": datetime.date.today().isoformat(),
        "machine": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "platform": platform.platform(),
        },
        "seed": seed,
        "seconds": seconds,
        "workloads": {},
    }
    for name in WORKLOADS:
        plain = _spawn(name, seed, seconds, trace=0)
        traced = _spawn(name, seed, seconds, trace=1)
        overhead = traced["metrics"]["trace.wall_s"]["value"] - plain["metrics"]["wall_s"]["value"]
        report["workloads"][name] = {
            "correct": plain["correct"] and traced["correct"],
            "attempted": plain["attempted"],
            "failed": plain["failed"],
            "end_to_end": plain["metrics"],
            "per_layer": traced["metrics"],
            "tracing_overhead_s": overhead,
        }
        print(f"\n{name}: correct={plain['correct'] and traced['correct']} "
              f"attempted={plain['attempted']} failed={plain['failed']}")
        for metric, m in plain["metrics"].items():
            print(f"  {metric:34s} {m['value']:14.4f} {m['unit']}")
        for metric, m in traced["metrics"].items():
            print(f"  {metric:34s} {m['value']:14.4f} {m['unit']}")
        print(f"  {'tracing overhead':34s} {overhead:14.4f} s")
    report["stage_table"] = _stage_table(seed)
    print("\ncell | rows / cols | dataset | build | solve | extract | verify | persist | peak RSS")
    for row in report["stage_table"]:
        row["peak_rss_mb"] = report["workloads"][row["workload"]]["end_to_end"]["peak_rss_mb"]["value"]
        print(
            f"{row['cell']} | {row['rows']} / {row['cols']} | {row['dataset_s']:.2f} s | "
            + " | ".join(
                f"{row.get(k, 0.0):.2f} s"
                for k in ("model.build_model", "solver.solve", "model.extract_solved",
                          "solver.verify", "scenarios.persist_result")
            )
            + f" | {row['peak_rss_mb']:.0f} MB"
        )
    path = HERE / f"BENCH_{report['date']}.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"\nwritten {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOADS, help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=7, help="seed of the synthetic inputs")
    parser.add_argument("--seconds", type=float, default=5.0, help="timed rounds run at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="report per-layer metrics")
    args = parser.parse_args(argv)
    import_heatgrid()
    if args.workload is None:
        run_all(args.seed, args.seconds)
        return 0
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
