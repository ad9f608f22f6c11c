"""Repository benchmark: whole flows through the public entry points.

Usage (from the repository root)::

    python3 perfbench/run.py --workload bigcore-report --seed 1 \\
        --seconds 28 --trace 0 [--out result.json]

Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md``):

* ``bigcore-report``  bigcore per-FUB report with its ACE suite
* ``systolic-sweep``  systolic 12x12 four-point batched loop sweep
* ``tinycore-sfi``    tinycore:matmul SART report + 256-injection SFI
* ``serve-mixed``     a ``repro serve`` process under open/closed load

``--trace 0`` measures with the program untouched and prints the
end-to-end metrics; ``--trace 1`` alternates untraced and traced
iterations and prints the per-layer metrics. Every run checks the
program's outputs; a mismatch counts as a failed operation. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import REFERENCE_S, Clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 1
SETUP_REPEATS = 3
WORKLOADS = ("bigcore-report", "systolic-sweep", "tinycore-sfi", "serve-mixed")
# Workloads whose inputs the seed changes; the others have one reference.
SEEDED = {"bigcore-report", "tinycore-sfi", "serve-mixed"}

# Small flows of each workload's shape, run once per set-up so that
# lazy imports and first-call costs land in set-up, not in cold_s.
PRIME_SPECS = {
    "bigcore-report": {"design": "bigcore@scale=0.25,seed=1",
                       "workloads": {"per_class": 1, "length": 200},
                       "sart": {}},
    "systolic-sweep": {"design": "systolic@rows=4,cols=4",
                       "sweep": {"points": 2}},
    "tinycore-sfi": {"design": "tinycore:fib", "sart": {"monolithic": True},
                     "sfi": {"injections": 16, "seed": 1},
                     "campaign": {"workers": 1}},
}

# Printed on every run beside BENCHMARK.json's end-to-end metrics.
REPORT_UNITS = {"avf_abs_err": "AVF", "serve_p50_s": "s", "serve_p95_s": "s",
                "serve_rps": "jobs/s", "error_rate": "ratio"}


def bench_metrics(kind: str) -> dict[str, str]:
    """Name -> unit of BENCHMARK.json's ``end_to_end`` or ``per_layer`` list."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in doc[kind]}


def probe_note(probes: list[float]) -> str:
    return (f"host speed: probe median {statistics.median(probes):.4g} s, "
            f"range {min(probes):.4g}-{max(probes):.4g} s over {len(probes)} "
            f"probes; times above are at the {REFERENCE_S:g} s reference")


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# ----------------------------------------------------------------------
# stamps
# ----------------------------------------------------------------------

def git_commit() -> str | None:
    """HEAD of the checkout's own ``.git``, read without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        path = git / ref
        if path.is_file():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def stamps() -> dict:
    import repro

    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    import hashlib

    bench = hashlib.sha256()
    for path in sorted(HERE.glob("*.py")):
        bench.update(path.read_bytes())
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "repro": repro.__version__,
        "commit": git_commit(),
        "bench": bench.hexdigest()[:16],
    }


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------

def prime(workload: str, work_dir: Path) -> None:
    """Imports plus one small flow of the workload's shape."""
    from repro.pipeline import ArtifactStore, execute, spec_from_mapping

    store_dir = work_dir / f"prime-{os.getpid()}"
    try:
        execute(spec_from_mapping(PRIME_SPECS[workload]),
                store=ArtifactStore(store_dir))
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)


def flow_setup(workload: str, work_dir: Path) -> tuple[list[float], list[float]]:
    """Time fresh interpreters doing the set-up, then do it in-process.

    Returns the normalised and the wall seconds of each set-up.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    clock = Clock()
    times, walls = [], []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--probe", workload,
             "--work-dir", str(work_dir)],
            check=True, env=env, cwd=ROOT, timeout=120,
        )
        walls.append(time.perf_counter() - started)
        times.append(clock.normalise(walls[-1]))
    prime(workload, work_dir)
    return times, walls


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------

def flow_layers(run) -> tuple[dict, list[str]]:
    """Per-layer metrics of a traced flow run, per traced iteration."""
    tracer = run.tracer
    n = len(run.traced_walls)
    totals = tracer.totals()
    counts = tracer.counts
    values = dict.fromkeys(bench_metrics("per_layer"), 0.0)
    for name, seconds in totals.items():
        values[f"{name}_s"] = seconds / n
    for name in ("perfmodel.cycles", "ace.events", "core.relax_iterations",
                 "core.nodes", "core.canonicalize_s", "core.canonicalize_misses",
                 "pipeline.store_bytes", "pipeline.store_hits",
                 "pipeline.store_misses", "rtlsim.sim_cycles", "sfi.passes",
                 "sfi.failed_passes", "sfi.pool_restarts"):
        values[name] = counts.get(name, 0.0) / n
    values["pipeline.fub_hits"] = run.fub_hits / n
    if totals.get("perfmodel.run"):
        values["perfmodel.insts_per_s"] = (
            counts["perfmodel.insts"] / totals["perfmodel.run"])
    if totals.get("sfi.campaign"):
        values["sfi.injections_per_s"] = (
            counts["sfi.injections"] / totals["sfi.campaign"])
        if totals.get("core.run_sart"):
            # Per call: a warm flow re-solves SART but reads the campaign.
            calls = {name: sum(1 for span in tracer.spans if span[0] == name)
                     for name in ("sfi.campaign", "core.run_sart")}
            values["sfi.over_sart"] = (
                (totals["sfi.campaign"] / calls["sfi.campaign"])
                / (totals["core.run_sart"] / calls["core.run_sart"]))
    if run.accuracy is not None:
        values["sfi.avf_abs_err"] = run.accuracy
    wall = sum(t1 - t0 for t0, t1 in run.flow_windows)
    covered = sum(tracer.covered(t0, t1) for t0, t1 in run.flow_windows)
    values["unattributed_s"] = (wall - covered) / n
    values["trace.attributed_frac"] = covered / wall
    values["trace.overhead_frac"] = (
        min(run.traced_walls) / min(run.untraced_walls) - 1.0)
    outside = sum(t1 - t0 for _, t0, t1 in tracer.stage_spans)
    inside = sum(e.seconds for e in run.events)
    values["trace.stage_agreement"] = inside / outside if outside else 0.0

    lines = ["  stage    StageEvent_s  outside_s  layer_spans_s  (per traced iteration)"]
    for stage in sorted({name for name, _, _ in tracer.stage_spans}):
        spans = [(t0, t1) for name, t0, t1 in tracer.stage_spans if name == stage]
        event_s = sum(e.seconds for e in run.events if e.stage == stage)
        out_s = sum(t1 - t0 for t0, t1 in spans)
        layer_s = sum(tracer.covered(t0, t1) for t0, t1 in spans)
        lines.append(f"  {stage:<8}{event_s / n:>13.4f}{out_s / n:>11.4f}"
                     f"{layer_s / n:>15.4f}")
    return values, lines


def serve_layers(summary: dict) -> dict:
    """Per-layer metrics of a serve run: its own figures, 0 elsewhere."""
    return {name: summary.get(name, 0.0) for name in bench_metrics("per_layer")}


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

def load_reference(workload: str, seed: int):
    key = str(seed) if workload in SEEDED else "any"
    try:
        doc = json.loads(REFERENCE.read_text())
    except FileNotFoundError:
        return key, None
    return key, doc.get(workload, {}).get(key)


def bless(workload: str, key: str, outputs) -> None:
    doc = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    doc.setdefault(workload, {})[key] = outputs
    REFERENCE.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def run_flow(args, work_dir: Path) -> dict:
    import flows

    key, reference = load_reference(args.workload, args.seed)
    if args.bless:
        reference = None
    setup, setup_walls = flow_setup(args.workload, work_dir)
    run = flows.measure(args.workload, args.seed, args.seconds, work_dir,
                        reference, bool(args.trace))
    if args.bless:
        bless(args.workload, key, run.first_outputs)
    report = {
        "setup_s": statistics.median(setup),
        "cold_s": statistics.median(run.cold),
        "warm_s": statistics.median(run.warm),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "avf_abs_err": run.accuracy,
        "setup_wall_s": statistics.median(setup_walls),
        "cold_wall_s": statistics.median(run.cold_wall),
        "warm_wall_s": statistics.median(run.warm_wall),
    }
    notes = [f"setup_s: median of {len(setup)} set-ups (wall "
             f"{report['setup_wall_s']:.4g} s)",
             f"cold_s: median of {len(run.cold)} cold runs (wall "
             f"{report['cold_wall_s']:.4g} s); warm_s: median of "
             f"{len(run.warm)} warm runs (wall {report['warm_wall_s']:.4g} s)",
             probe_note(run.clock.probes),
             f"output checks: {'reference digests' if reference else 'held-out seed'}"
             f" ({run.attempted} outcomes)"]
    layers, table = (flow_layers(run) if args.trace else (None, []))
    return {"report": report, "layers": layers, "notes": notes + table,
            "attempted": run.attempted, "failed": run.failed,
            "problems": run.problems}


def run_serve(args, work_dir: Path) -> dict:
    import serving

    key, reference = load_reference(args.workload, args.seed)
    setup, setup_walls = [], []
    server = None
    clock = Clock()
    for i in range(SETUP_REPEATS):
        if server is not None:
            server.stop()
        server, seconds = serving.start_primed(ROOT, work_dir, f"server{i}")
        setup_walls.append(seconds)
        setup.append(clock.normalise(seconds))
    run, stats = serving.measure(args.seed, args.seconds, server)
    digest = run.digest()
    if args.bless:
        if digest is None:
            fail("--bless needs a longer run: too few open-loop jobs to digest")
        bless(args.workload, key, digest)
    elif reference is not None and digest is None:
        reference = None
    elif reference is not None and digest != reference:
        run.fail(f"served results digest {digest} != reference {reference}")
    summary = serving.summary(run, stats)
    report = {
        "setup_s": statistics.median(setup),
        "cold_s": summary["cold_s"],
        "warm_s": summary["warm_s"],
        "peak_rss_mb": run.peak_rss_mb,
        "setup_wall_s": statistics.median(setup_walls),
        "cold_wall_s": summary["cold_wall_s"],
        "warm_wall_s": summary["warm_wall_s"],
        "serve_p50_s": summary["serve.p50_s"],
        "serve_p95_s": summary["serve.p95_s"],
        "serve_rps": summary["serve.rps"],
    }
    notes = [
        f"setup_s: median of {len(setup)} server starts with a priming job"
        f" (wall {report['setup_wall_s']:.4g} s)",
        f"cold_s: median due->done of {len(run.distinct_latency)} distinct jobs"
        f" (wall {report['cold_wall_s']:.4g} s); warm_s: of"
        f" {len(run.repeat_latency)} repeated requests (wall"
        f" {report['warm_wall_s']:.4g} s)",
        probe_note(clock.probes + [probe for _, probe in run.speed]),
        f"serve_p95_s over {summary['serve.samples']} open-loop requests at "
        f"{serving.OPEN_RATE:g}/s; serve_rps: {run.closed_jobs} jobs, "
        f"{serving.CLOSED_CLIENTS} closed-loop clients",
        f"output checks: {'reference digest' if reference else 'held-out seed'}"
        f", repeats identical, {serving.SPOT_CHECKS} in-process re-executions",
    ]
    layers = serve_layers(summary) if args.trace else None
    return {"report": report, "layers": layers, "notes": notes,
            "attempted": run.attempted, "failed": run.failed,
            "problems": run.problems}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result document here")
    parser.add_argument("--bless", action="store_true",
                        help="record this run's output digests as the reference")
    parser.add_argument("--probe", choices=tuple(PRIME_SPECS),
                        help=argparse.SUPPRESS)
    parser.add_argument("--work-dir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        fail(f"no program source under {ROOT / 'src'}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    if args.probe:
        prime(args.probe, Path(args.work_dir))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.bless and args.seed != DEFAULT_SEED:
        parser.error(f"--bless records the default seed ({DEFAULT_SEED}) only")

    work_dir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        runner = run_serve if args.workload == "serve-mixed" else run_flow
        result = runner(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass

    report = result["report"]
    attempted, failed = result["attempted"], result["failed"]
    report["error_rate"] = failed / attempted
    stamp = stamps()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} " + " ".join(f"{k}={v}" for k, v in stamp.items()))
    for name, unit in dict(bench_metrics("end_to_end"), **REPORT_UNITS).items():
        value = report.get(name)
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<14}{shown:>12} {unit}")
    for line in result["notes"]:
        print(f"  {line}")
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}")

    if args.trace:
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit in bench_metrics("per_layer").items()}
        for name, metric in metrics.items():
            print(f"  {name:<26}{metric['value']:>14.6g} {metric['unit']}")
    else:
        metrics = {name: {"value": report[name], "unit": unit}
                   for name, unit in bench_metrics("end_to_end").items()}
    if args.out:
        doc = {"workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace, "stamps": stamp,
               "report": report, "metrics": metrics, "attempted": attempted,
               "failed": failed, "problems": result["problems"]}
        Path(args.out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
