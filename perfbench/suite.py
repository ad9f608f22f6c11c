"""Run every workload over several seeds and summarise each metric.

Usage (from the repository root)::

    python3 perfbench/suite.py --out results/base [--seeds 1 2 3] \\
        [--workloads bigcore-report serve-mixed] [--seconds 28] [--trace 0]

Each run is ``perfbench/run.py`` in its own process, writing its full
result document to ``<out>/<workload>-seed<n>-trace<t>.json``. The
summary prints, per workload and metric, the median, the quartiles and
the spread (interquartile distance over the median) with its unit. Two
such directories are what ``perfbench/compare.py`` compares.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402


def load(out: Path) -> dict[str, list[dict]]:
    """Result documents of a directory, grouped by workload, seed order."""
    runs: dict[str, list[dict]] = {}
    for path in sorted(out.glob("*.json")):
        doc = json.loads(path.read_text())
        runs.setdefault(doc["workload"], []).append(doc)
    for docs in runs.values():
        docs.sort(key=lambda doc: (doc["trace"], doc["seed"]))
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarise(runs: dict[str, list[dict]]) -> None:
    for workload, docs in runs.items():
        for trace in sorted({doc["trace"] for doc in docs}):
            group = [doc for doc in docs if doc["trace"] == trace]
            failed = sum(doc["failed"] for doc in group)
            attempted = sum(doc["attempted"] for doc in group)
            print(f"{workload} trace={trace}: {len(group)} runs, "
                  f"{failed}/{attempted} operations failed")
            for name, metric in group[0]["metrics"].items():
                values = [doc["metrics"][name]["value"] for doc in group]
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med if med else float("nan")
                print(f"  {name:<26}{med:>14.6g} {metric['unit']:<7}"
                      f" q1={q1:<12.6g} q3={q3:<12.6g} spread={spread:.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True, help="result directory")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS,
                        default=list(WORKLOADS))
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())[
            "run_seconds"]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    status = 0
    for workload in args.workloads:
        for seed in args.seeds:
            path = out / f"{workload}-seed{seed}-trace{args.trace}.json"
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(args.trace), "--out", str(path)],
                cwd=HERE.parent, stdout=subprocess.PIPE, text=True,
            )
            print(proc.stdout, end="")
            if proc.returncode:
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                status = 1
    summarise(load(out))
    return status


if __name__ == "__main__":
    sys.exit(main())
