"""Iterative relaxation across FUB partitions (paper Section 5.2).

Each iteration performs "one up and one down walk through the netlist for
each FUB" against the FUBIO values merged at the end of the previous
iteration (Jacobi style — a pAVF value crosses exactly one partition per
iteration, as the paper notes). FUBIO merging applies the same rule as
internal logic: "smallest conservative value is used".

The iteration trace records, per FUB and iteration, the average resolved
pAVF of its sequential nodes — the quantity the paper plotted to declare
20 iterations sufficient for convergence.

This module is the serial reference implementation. The compiled engine
(:func:`repro.core.compiled.relax_compiled`) runs the same iteration on
index-based kernels and can fan per-FUB solves across worker processes
via the fault-tolerant runtime (:mod:`repro.sfi.runtime`): worker loss
respawns the pool and repeated breakage falls back to this module's
serial semantics rather than aborting — bit-identical either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.core.dataflow import shared_interner, solve_backward, solve_forward
from repro.core.graphmodel import AvfModel
from repro.core.partition import FubPartition, partition_by_fub
from repro.core.pavf import Atom, PavfEnv, SetInterner, TOP_SET, value_of
from repro.netlist.graph import NodeKind


@dataclass
class RelaxationTrace:
    """Convergence record of one relaxation run."""

    iterations: int = 0
    converged: bool = False
    max_delta: list[float] = field(default_factory=list)
    # fub -> per-iteration average MIN(f, b) over its sequential nodes.
    fub_avg: dict[str, list[float]] = field(default_factory=dict)
    # ECO mode: whether this run was seeded from a previous converged
    # solution, and how the FUBs split between reused and re-solved.
    warm: bool = False
    warm_fubs: int = 0      # FUBs whose solution was seeded, not re-solved
    dirty_fubs: int = 0     # FUBs in the initial re-solve set
    resolved_fubs: int = 0  # distinct FUBs actually re-solved (≥ dirty_fubs)
    # Plan indices of the re-solved FUBs; on optimistic warm runs
    # ``fub_avg`` covers only these (untouched FUBs have no new values
    # to record — their solution is the seeded baseline's).
    resolved_fub_ids: tuple[int, ...] = ()


@dataclass
class WarmStart:
    """Seed state for an incremental (ECO) relaxation.

    Carries a baseline converged solution keyed by net name (node/set
    ids are plan-private and do not survive a rebuild):

    * ``f_sets``/``b_sets`` — converged per-node annotation sets.
    * ``f_boundary``/``b_boundary`` — converged FUBIO boundary entries.
      Boundaries are seeded separately from node values because the MIN
      merge keeps the *first* set to reach a value: at convergence a
      boundary entry may hold an older, equal-valued set than the
      owner's final output, and bit-identical replay must preserve that
      history.
    * ``dirty_fubs`` — the FUBs the relaxation re-solves up front.
      Everything else starts converged and is only re-solved if a
      boundary merge dirties it.

    Two seeding disciplines, selected by ``optimistic``:

    **Exact** (``optimistic=False``, the per-FUB store path): every
    seeded value is known to equal the new design's fixpoint — the
    store key chained the full dependency-closure fingerprints — and
    only node/boundary state of those proven FUBs may be seeded. Dirty
    FUBs restart from TOP and the normal MIN merge applies; seeds are
    genuine lower-bound-safe fixpoint values.

    **Optimistic** (``optimistic=True``, the design-delta path): the
    *entire* baseline solution is seeded, including FUBs whose values
    the edit may have changed, and ``dirty_fubs`` lists only the
    structurally changed FUBs. Seeds are then *not* lower bounds (an
    edit can raise values), so the relaxation switches its merge to
    replace-on-set-change and converges on quiescence: a re-solved
    export that differs from its seed — in either direction — replaces
    it and dirties the importers, so the re-solve front expands along
    the edit's *actual value influence* and stops where the solution
    provably stopped changing. The underlying node system is acyclic
    (fixed nodes cut every cycle), so its fixpoint is unique and
    quiescence lands bit-identically on the cold answer while touching
    only the influenced region — typically a tiny fraction of the
    design, where any static reachability bound would re-solve most of
    it.
    """

    dirty_fubs: frozenset[str]
    f_sets: Mapping[str, frozenset] = field(default_factory=dict)
    b_sets: Mapping[str, frozenset] = field(default_factory=dict)
    f_boundary: Mapping[str, frozenset] = field(default_factory=dict)
    b_boundary: Mapping[str, frozenset] = field(default_factory=dict)
    optimistic: bool = False
    # Optimistic runs only: the baseline's resolved per-node AVFs
    # (name -> NodeAvf), carried so the solver front end can assemble
    # the final result from the baseline for every FUB the cascade never
    # touched instead of re-resolving the whole design.
    baseline_avfs: Mapping[str, Any] = field(default_factory=dict)


@dataclass
class RelaxationResult:
    f_sets: dict[str, frozenset[Atom]]
    b_sets: dict[str, frozenset[Atom]]
    trace: RelaxationTrace
    partition: FubPartition


def relax(
    model: AvfModel,
    env: PavfEnv,
    *,
    iterations: int = 20,
    tol: float = 1e-9,
    max_terms: int = 0,
    dangling: str = "unace",
    partition: FubPartition | None = None,
    interner: SetInterner | None = None,
) -> RelaxationResult:
    """Run the partitioned analysis to convergence (or *iterations*)."""
    partition = partition or partition_by_fub(model)
    trace = RelaxationTrace()
    # One interner across every FUB, iteration and direction: duplicate
    # annotation sets are shared instead of re-allocated per solve.
    interner = shared_interner(interner, model)

    f_boundary: dict[str, frozenset[Atom]] = {}
    b_boundary: dict[str, frozenset[Atom]] = {}
    f_sets: dict[str, frozenset[Atom]] = {}
    b_sets: dict[str, frozenset[Atom]] = {}

    for iteration in range(iterations):
        new_f: dict[str, frozenset[Atom]] = {}
        new_b: dict[str, frozenset[Atom]] = {}
        for nets in partition.fubs.values():
            new_f.update(
                solve_forward(
                    model, nets=nets, boundary=f_boundary, max_terms=max_terms,
                    interner=interner,
                )
            )
            new_b.update(
                solve_backward(
                    model, nets=nets, boundary=b_boundary, max_terms=max_terms,
                    dangling=dangling, interner=interner,
                )
            )

        # FUBIO merge: export boundary values, keeping the smaller estimate.
        delta = 0.0
        for net in partition.forward_exports:
            delta = max(delta, _merge(f_boundary, net, new_f.get(net, TOP_SET), env))
        for net in partition.backward_exports:
            delta = max(delta, _merge(b_boundary, net, new_b.get(net, TOP_SET), env))

        f_sets, b_sets = new_f, new_b
        trace.iterations = iteration + 1
        trace.max_delta.append(delta)
        _record_fub_averages(model, partition, f_sets, b_sets, env, trace)
        if delta <= tol:
            trace.converged = True
            break

    return RelaxationResult(f_sets=f_sets, b_sets=b_sets, trace=trace, partition=partition)


def _merge(
    table: dict[str, frozenset[Atom]], net: str, new: frozenset[Atom], env: PavfEnv
) -> float:
    """MIN-rule merge; returns the magnitude of the value change."""
    old = table.get(net, TOP_SET)
    old_val = value_of(old, env)
    new_val = value_of(new, env)
    if new_val < old_val:
        table[net] = new
        return old_val - new_val
    return 0.0


def _record_fub_averages(
    model: AvfModel,
    partition: FubPartition,
    f_sets: Mapping[str, frozenset[Atom]],
    b_sets: Mapping[str, frozenset[Atom]],
    env: PavfEnv,
    trace: RelaxationTrace,
) -> None:
    nodes = model.graph.nodes
    for fub, nets in partition.fubs.items():
        seq_vals = []
        for net in nets:
            if nodes[net].kind != NodeKind.SEQ or net in model.struct_nodes:
                continue
            f_val = value_of(f_sets.get(net, TOP_SET), env)
            b_val = value_of(b_sets.get(net, TOP_SET), env)
            seq_vals.append(min(f_val, b_val))
        avg = sum(seq_vals) / len(seq_vals) if seq_vals else 0.0
        trace.fub_avg.setdefault(fub, []).append(avg)
