"""The three pipeline workloads: cold and warm runs of one run-spec.

Each workload builds its run-spec from the seed, then repeats a *cold*
run (``repro.pipeline.execute`` against an empty artifact store)
followed by *warm* runs (a fresh ``ArtifactStore`` over the directory
the cold run filled, as a second CLI invocation with the same
``--cache-dir`` would see it) until the run's time is spent. Only the
call to ``execute`` is timed, and each time is also normalised to the
reference host speed by the probes taken around it (``hostspeed``).
Every outcome is reduced to digests of its stable outputs, which must
match between cold and warm, against the reference digests kept for the
default seed, and (SFI) across worker counts.
"""

from __future__ import annotations

import gc
import hashlib
import shutil
import time
from pathlib import Path

from hostspeed import Clock
from layertrace import Tracer

SFI_INJECTIONS = 256
SFI_WORKERS = 2
SYSTOLIC_REF = "systolic@rows=12,cols=12"
SYSTOLIC_POINTS = 4
# Warm runs per cold run. A tinycore-sfi warm run is ~15x shorter than
# its cold run, so two per cold run cost little; on the other two, one
# warm run per cold run leaves the time for more cold samples.
WARM_REPEATS = {"bigcore-report": 1, "systolic-sweep": 1, "tinycore-sfi": 2}


def _digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:20]


def spec_doc(workload: str, seed: int, *, workers: int = SFI_WORKERS) -> dict:
    """The run-spec document a workload executes for *seed*."""
    if workload == "bigcore-report":
        return {"design": f"bigcore@scale=1,seed={seed}",
                "workloads": {"per_class": 2, "length": 1000}, "sart": {}}
    if workload == "systolic-sweep":
        return {"design": SYSTOLIC_REF, "sweep": {"points": SYSTOLIC_POINTS}}
    if workload == "tinycore-sfi":
        return {
            "design": "tinycore:matmul",
            "sart": {"monolithic": True},
            "sfi": {"injections": SFI_INJECTIONS, "seed": seed},
            "campaign": {"workers": workers},
        }
    raise ValueError(f"not a pipeline workload: {workload}")


def outputs(outcome) -> dict[str, str]:
    """Digests of the stable outputs of one RunOutcome."""
    out = {}
    if outcome.sart is not None:
        out["report"] = _digest(outcome.sart.result.report)
    if outcome.sweep:
        out["sweep"] = _digest([(p.value, p.result.report) for p in outcome.sweep])
    if outcome.sfi is not None:
        result = outcome.sfi.result
        out["sfi_counts"] = _digest(sorted(result.counts().items()))
        out["sfi_outcomes"] = _digest(sorted(
            (o.plan.net, o.plan.cycle, o.outcome) for o in result.outcomes))
    return out


def avf_abs_err(outcome) -> float:
    """|mean SART AVF of the injected flops, weighted by injections - SFI AVF|."""
    campaign = outcome.sfi.result
    node_avfs = outcome.sart.result.node_avfs
    sart = sum(node_avfs[o.plan.net].avf for o in campaign.outcomes)
    return abs(sart / len(campaign.outcomes) - campaign.avf())


class FlowRun:
    """State of one measured run of a pipeline workload."""

    def __init__(self, workload: str, seed: int, work_dir: Path,
                 reference: dict | None):
        from repro.pipeline import spec_from_mapping

        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.reference = reference
        self.spec = spec_from_mapping(spec_doc(workload, seed))
        self.clock = Clock()
        # Normalised seconds (hostspeed) and raw wall seconds per flow.
        self.cold: list[float] = []
        self.warm: list[float] = []
        self.cold_wall: list[float] = []
        self.warm_wall: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.accuracy: float | None = None
        self.first_outputs: dict[str, str] | None = None
        self.traced_walls: list[float] = []
        self.untraced_walls: list[float] = []
        self.tracer: Tracer | None = None
        self.flow_windows: list[tuple[float, float]] = []
        self.events: list = []
        self.fub_hits = 0
        self._stores = 0

    # -- one execute --------------------------------------------------------
    def _execute(self, store_dir: Path, tracer: Tracer | None):
        from repro.pipeline import ArtifactStore, execute

        store = ArtifactStore(store_dir)
        if tracer is not None:
            tracer.install()
        try:
            started = time.perf_counter()
            outcome = execute(self.spec, store=store)
            ended = time.perf_counter()
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None:
            self.flow_windows.append((started, ended))
            self.events.extend(outcome.events)
            if outcome.sart is not None:
                self.fub_hits += outcome.sart.fub_hits
        return outcome, ended - started

    def _record(self, label: str, outcome) -> None:
        """Count one outcome, failed when its outputs do not match."""
        self.attempted += 1
        got = outputs(outcome)
        if self.first_outputs is None:
            self.first_outputs = got
            want, against = self.reference, "reference digests"
            if self.workload == "tinycore-sfi":
                self.accuracy = avf_abs_err(outcome)
        else:
            want, against = self.first_outputs, "first run"
        if want is not None and got != want:
            self.failed += 1
            self.problems.append(f"{label} vs {against}: outputs {got} != {want}")

    # -- one flow --------------------------------------------------------------
    def flow(self, kind: str, store_dir: Path, tracer: Tracer | None = None) -> float:
        """One cold or warm run on *store_dir*; returns its execute seconds."""
        outcome, seconds = self._execute(store_dir, tracer)
        self._record(kind, outcome)
        del outcome
        gc.collect()
        if tracer is None:
            normalised = self.clock.normalise(seconds)
            (self.cold if kind == "cold" else self.warm).append(normalised)
            (self.cold_wall if kind == "cold" else self.warm_wall).append(seconds)
        return seconds

    def new_store(self) -> Path:
        self._stores += 1
        return self.work_dir / f"store{self._stores}"

    def worker_check(self) -> None:
        """Held-out seed: the SFI outcomes must not depend on worker count."""
        from repro.pipeline import ArtifactStore, execute, spec_from_mapping

        spec = spec_from_mapping(spec_doc(self.workload, self.seed, workers=1))
        store_dir = self.work_dir / "one-worker"
        try:
            outcome = execute(spec, store=ArtifactStore(store_dir))
            self._record("1 worker", outcome)
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)


def measure(workload: str, seed: int, seconds: float, work_dir: Path,
            reference: dict | None, traced: bool) -> FlowRun:
    """Run flows until *seconds* are spent.

    An untraced run repeats one cold run followed by ``WARM_REPEATS``
    warm runs on its store. Each run starts only while the previous run
    of its kind would still finish in time; the first cold and the first
    warm run always happen. A traced run instead alternates untraced and
    traced cold + warm pairs (at least one of each), so the per-layer
    figures cover one cold and one warm flow and the tracing overhead is
    measured against the same run.
    """
    run = FlowRun(workload, seed, work_dir, reference)
    deadline = time.perf_counter() + seconds
    if reference is None and workload == "tinycore-sfi":
        run.worker_check()
    store_dir = None
    try:
        if traced:
            last = 0.0
            while len(run.traced_walls) < 1 or time.perf_counter() + last <= deadline:
                tracer = None
                if len(run.untraced_walls) > len(run.traced_walls):
                    tracer = run.tracer = run.tracer or Tracer()
                started = time.perf_counter()
                store_dir = run.new_store()
                wall = (run.flow("cold", store_dir, tracer)
                        + run.flow("warm", store_dir, tracer))
                (run.traced_walls if tracer else run.untraced_walls).append(wall)
                shutil.rmtree(store_dir, ignore_errors=True)
                last = time.perf_counter() - started
            return run
        last = {"cold": None, "warm": None}
        steps = ["cold"] + ["warm"] * WARM_REPEATS[workload]
        while True:
            for kind in steps:
                if last[kind] is not None and time.perf_counter() + last[kind] > deadline:
                    return run
                started = time.perf_counter()
                if kind == "cold":
                    if store_dir is not None:
                        shutil.rmtree(store_dir, ignore_errors=True)
                    store_dir = run.new_store()
                run.flow(kind, store_dir)
                last[kind] = time.perf_counter() - started
    finally:
        if store_dir is not None:
            shutil.rmtree(store_dir, ignore_errors=True)
