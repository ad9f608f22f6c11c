"""Compare two result sets written by ``perfbench/suite.py``.

Usage (from the repository root)::

    python3 perfbench/compare.py results/base results/change

Each (workload, metric) pair is reported, one workload per block, as

* ``better``     the change wins at least 9 of every 10 seed-paired runs
                 (ties count for neither side) and the medians differ by
                 more than the base runs' own interquartile distance;
* ``worse``      a bounded metric's median is worse than the base median
                 by more than its ``BENCHMARK.json`` bound, or an
                 unbounded (per-layer) metric loses by the rule above;
* ``unresolved`` the base runs spread wider than the bound, and not every
                 change run beats every base run;
* ``unchanged``  otherwise.

Results are compared only when every document of a set carries the same
stamps and both sets agree on the host stamps (CPU count, Python and
numpy versions), the benchmark code digest and the run length; the
commit and package version are what tell the two sides apart.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from suite import load, quartiles  # noqa: E402

SHARED_STAMPS = ("cpu_count", "python", "numpy", "bench")
WIN_SHARE = 0.9


def bench_metrics() -> dict[str, dict]:
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in doc["end_to_end"] + doc["per_layer"]}


def check_stamps(base: dict, new: dict) -> list[str]:
    """Reasons the two sets may not be compared (empty: comparable)."""
    problems = []
    sides = {}
    for label, runs in (("base", base), ("change", new)):
        docs = [doc for group in runs.values() for doc in group]
        if not docs:
            problems.append(f"{label}: no result documents")
            continue
        kinds = {json.dumps(doc["stamps"], sort_keys=True) for doc in docs}
        if len(kinds) > 1:
            problems.append(f"{label}: results carry different stamps: "
                            f"{sorted(kinds)}")
        lengths = {doc["seconds"] for doc in docs}
        if len(lengths) > 1:
            problems.append(f"{label}: mixed run lengths {sorted(lengths)}")
        sides[label] = (docs[0]["stamps"], docs[0]["seconds"])
    if len(sides) == 2:
        (a, sa), (b, sb) = sides["base"], sides["change"]
        for key in SHARED_STAMPS:
            if a.get(key) != b.get(key):
                problems.append(f"stamp {key!r} differs: {a.get(key)} vs {b.get(key)}")
        if sa != sb:
            problems.append(f"run length differs: {sa} vs {sb}")
    return problems


def verdict(base: list[float], new: list[float], pairs: list[tuple[float, float]],
            better: str, bound: float | None) -> str:
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    losses = sum(1 for b, n in pairs if sign * (n - b) < 0)
    q1, base_median, q3 = quartiles(base)
    new_median = statistics.median(new)
    gap = sign * (new_median - base_median)
    iqr = q3 - q1
    if pairs and wins >= WIN_SHARE * len(pairs) and gap > iqr:
        return "better"
    if bound is None:
        if pairs and losses >= WIN_SHARE * len(pairs) and -gap > iqr:
            return "worse"
        return "unchanged"
    if -gap > bound * abs(base_median):
        return "worse"
    spread = iqr / abs(base_median) if base_median else 0.0
    all_better = min(sign * n for n in new) > max(sign * b for b in base)
    if spread > bound and not all_better:
        return "unresolved"
    return "unchanged"


def compare(base: dict, new: dict) -> list[tuple[str, str, str, float, float]]:
    metrics = bench_metrics()
    rows = []
    for workload in sorted(set(base) & set(new)):
        for trace in (0, 1):
            a = {d["seed"]: d for d in base[workload] if d["trace"] == trace}
            b = {d["seed"]: d for d in new[workload] if d["trace"] == trace}
            if not a or not b:
                continue
            seeds = sorted(set(a) & set(b))
            names = next(iter(a.values()))["metrics"]
            for name in names:
                spec = metrics.get(name)
                if spec is None:
                    continue
                base_values = [d["metrics"][name]["value"] for d in a.values()]
                new_values = [d["metrics"][name]["value"] for d in b.values()]
                pairs = [(a[s]["metrics"][name]["value"],
                          b[s]["metrics"][name]["value"]) for s in seeds]
                rows.append((workload, name, verdict(
                    base_values, new_values, pairs, spec["better"],
                    spec.get("bound")),
                    statistics.median(base_values),
                    statistics.median(new_values)))
            failed = (sum(d["failed"] for d in a.values()),
                      sum(d["failed"] for d in b.values()))
            if failed[1] > failed[0]:
                rows.append((workload, "failed_operations", "worse",
                             float(failed[0]), float(failed[1])))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    base, new = load(Path(args.base)), load(Path(args.change))
    problems = check_stamps(base, new)
    if problems:
        for problem in problems:
            print(f"compare: refusing: {problem}", file=sys.stderr)
        return 2
    current = None
    for workload, name, word, before, after in compare(base, new):
        if workload != current:
            print(workload)
            current = workload
        print(f"  {name:<26}{word:<11}{before:>14.6g} -> {after:<14.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
