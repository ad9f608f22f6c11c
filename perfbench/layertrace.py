"""Outside-in tracing for the benchmark's traced run.

The program carries no tracing of its own yet, so the traced run wraps
each layer's public function *at the binding its caller looks up* (for
example ``repro.pipeline.stages.build_plan``, which ``stage_plan`` calls,
and not only ``repro.core.sart.build_plan``). Spans and counts are kept
in memory and summarised when the run ends; nothing under ``src/`` is
modified. A run installs the wrappers only around its traced flows and
removes them again with :meth:`Tracer.uninstall`, so its untraced flows
run the program as shipped.

Three kinds of hook:

* **span** hooks record ``(name, start, end, parent)`` around a call.
  The parent is the innermost enclosing span on the same thread, so a
  layer's spans nest inside the layer that called it.
* **count** hooks only bump a counter. The ACE lifetime callbacks run
  about 260k times per bigcore suite; timing them would cost more than
  they do.
* **miss** hooks time only first-touch calls (``SetInterner.sorted_atoms``
  on a set not yet sorted), counting and timing without span records.

Stage wrappers (``repro.pipeline.runner.stage_*``) are recorded outside
the span tree, so they never count as layer time; they exist to
cross-check the outside spans against ``StageEvent.seconds``.
"""

from __future__ import annotations

import importlib
import os
import threading
import time
from collections import defaultdict

# (module, attribute path, span name). One layer may be reached through
# several bindings; every binding a flow can call through is listed.
SPAN_HOOKS = (
    ("repro.designs.bigcore.provider", "BigcoreProvider.build", "designs.build"),
    ("repro.designs.bigcore.provider", "SystolicProvider.build", "designs.build"),
    ("repro.designs.tinycore.provider", "TinycoreProvider.build", "designs.build"),
    ("repro.workloads", "default_suite", "workloads.generate"),
    ("repro.perfmodel.machine", "run_workload", "perfmodel.run"),
    ("repro.ace.portavf", "ports_from_analysis", "ace.ports"),
    ("repro.ace.portavf", "average_ports", "ace.ports"),
    ("repro.ace.report", "structure_table", "ace.ports"),
    ("repro.designs.tinycore.archsim", "tinycore_structure_ports", "ace.ports"),
    ("repro.pipeline.stages", "build_plan", "core.build_plan"),
    ("repro.pipeline.stages", "run_sart", "core.run_sart"),
    ("repro.core.sart", "run_sart", "core.run_sart"),
    ("repro.core.sart", "resolve_ids", "core.resolve"),
    ("repro.core.batched", "resolve_ids", "core.resolve"),
    ("repro.core.batched", "sweep_batched", "core.sweep"),
    ("repro.pipeline.store", "ArtifactStore.load", "pipeline.store_load"),
    ("repro.pipeline.store", "ArtifactStore.save", "pipeline.store_save"),
    ("repro.pipeline.delta", "fub_fingerprints", "pipeline.eco"),
    ("repro.pipeline.delta", "fub_solution_keys", "pipeline.eco"),
    ("repro.pipeline.delta", "warm_start_from_store", "pipeline.eco"),
    ("repro.pipeline.delta", "save_fub_solutions", "pipeline.eco"),
    ("repro.designs.tinycore.harness", "run_gate_level", "rtlsim.golden"),
    ("repro.sfi", "run_sfi_campaign", "sfi.campaign"),
)

COUNT_HOOKS = (
    ("repro.ace.lifetime", "AceLifetimeAnalyzer.on_write", "ace.events"),
    ("repro.ace.lifetime", "AceLifetimeAnalyzer.on_read", "ace.events"),
    ("repro.ace.lifetime", "AceLifetimeAnalyzer.on_release", "ace.events"),
)

# runner binding -> the StageEvent name that stage records.
STAGE_HOOKS = {
    "stage_design": "design",
    "stage_golden": "golden",
    "stage_archsim_ports": "ports",
    "stage_ace_ports": "ace",
    "stage_plan": "plan",
    "stage_sart": "sart",
    "stage_sfi": "sfi",
}


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """In-memory spans and counters around the program's layer bindings."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []  # name, t0, t1, parent
        self.stage_spans: list[tuple[str, float, float]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span_wrapper(self, fn, name: str, on_result=None):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            index = len(tracer.spans)
            tracer.spans.append((name, 0.0, 0.0, stack[-1] if stack else -1))
            stack.append(index)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ended = time.perf_counter()
                stack.pop()
                tracer.spans[index] = (name, started, ended, tracer.spans[index][3])
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        return wrapper

    def _count_wrapper(self, fn, name: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _stage_wrapper(self, fn, name: str):
        tracer = self

        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.stage_spans.append((name, started, time.perf_counter()))

        return wrapper

    def _canonicalize_wrapper(self, fn):
        counts = self.counts

        def sorted_atoms(interner, sid):
            if interner._sorted[sid] is not None:
                return fn(interner, sid)
            started = time.perf_counter()
            result = fn(interner, sid)
            counts["core.canonicalize_s"] += time.perf_counter() - started
            counts["core.canonicalize_misses"] += 1
            return result

        return sorted_atoms

    # -- install / uninstall ---------------------------------------------
    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> "Tracer":
        for module, path, name in SPAN_HOOKS:
            owner, attr = _resolve(module, path)
            hook = _RESULT_HOOKS.get(name)
            self._patch(owner, attr,
                        self._span_wrapper(getattr(owner, attr), name, hook))
        for module, path, name in COUNT_HOOKS:
            owner, attr = _resolve(module, path)
            self._patch(owner, attr, self._count_wrapper(getattr(owner, attr), name))
        owner, attr = _resolve("repro.core.pavf", "SetInterner.sorted_atoms")
        self._patch(owner, attr, self._canonicalize_wrapper(getattr(owner, attr)))
        runner = importlib.import_module("repro.pipeline.runner")
        for attr, stage in STAGE_HOOKS.items():
            self._patch(runner, attr,
                        self._stage_wrapper(getattr(runner, attr), stage))
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- summaries ---------------------------------------------------------
    def totals(self) -> dict[str, float]:
        """Inclusive seconds per span name (nested re-entry counted once)."""
        out: dict[str, float] = defaultdict(float)
        names = [span[0] for span in self.spans]
        for name, t0, t1, parent in self.spans:
            # A span inside another span of the same name (a layer
            # calling itself through a second binding) is already covered.
            ancestor = parent
            while ancestor >= 0 and names[ancestor] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                out[name] += t1 - t0
        return out

    def top_level(self) -> list[tuple[str, float, float]]:
        return [(name, t0, t1) for name, t0, t1, parent in self.spans
                if parent < 0]

    def covered(self, start: float, end: float) -> float:
        """Seconds of [start, end] covered by the union of top-level spans."""
        intervals = sorted(
            (max(t0, start), min(t1, end)) for _, t0, t1 in self.top_level()
            if t1 > start and t0 < end
        )
        total = 0.0
        cursor = start
        for t0, t1 in intervals:
            if t1 <= cursor:
                continue
            total += t1 - max(t0, cursor)
            cursor = t1
        return total


def _perfmodel_result(tracer: Tracer, args, result) -> None:
    tracer.counts["perfmodel.cycles"] += result.cycles
    tracer.counts["perfmodel.insts"] += len(args[0].insts)


def _run_sart_result(tracer: Tracer, args, result) -> None:
    tracer.counts["core.nodes"] += len(result.node_avfs)
    if result.trace is not None:
        tracer.counts["core.relax_iterations"] += result.trace.iterations


def _sweep_result(tracer: Tracer, args, result) -> None:
    tracer.counts["core.nodes"] += args[0].n * result.width


def _store_load_result(tracer: Tracer, args, result) -> None:
    store, stage, fingerprint = args[:3]
    if result is None:
        tracer.counts["pipeline.store_misses"] += 1
        return
    tracer.counts["pipeline.store_hits"] += 1
    tracer.counts["pipeline.store_bytes"] += _size(store.path(stage, fingerprint))


def _store_save_result(tracer: Tracer, args, result) -> None:
    store, stage, fingerprint = args[:3]
    tracer.counts["pipeline.store_bytes"] += _size(store.path(stage, fingerprint))


def _golden_result(tracer: Tracer, args, result) -> None:
    tracer.counts["rtlsim.sim_cycles"] += result.cycles


def _sfi_result(tracer: Tracer, args, result) -> None:
    tracer.counts["sfi.passes"] += result.passes
    tracer.counts["sfi.injections"] += len(result.outcomes)
    tracer.counts["sfi.failed_passes"] += len(result.failures)
    tracer.counts["sfi.pool_restarts"] += result.pool_restarts
    tracer.counts["rtlsim.sim_cycles"] += result.simulated_cycles


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


_RESULT_HOOKS = {
    "perfmodel.run": _perfmodel_result,
    "core.run_sart": _run_sart_result,
    "core.sweep": _sweep_result,
    "pipeline.store_load": _store_load_result,
    "pipeline.store_save": _store_save_result,
    "rtlsim.golden": _golden_result,
    "sfi.campaign": _sfi_result,
}
