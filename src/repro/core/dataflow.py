"""Fixpoint propagation engine.

Solves the forward (pAVF_R, "down") and backward (pAVF_W, "up") systems of
the paper with one topological pass each. After loop breaking, every
cyclic dependency runs through a fixed node (structure bit, loop boundary,
control register, constant, primary input), so the dependency graph seen
by each direction is acyclic and a single pass reaches the fixpoint the
paper's iterated walks converge to. The faithful walk-by-walk
implementation lives in :mod:`repro.core.walker`; equivalence of the two
engines is asserted in the test suite and benchmarked as an ablation.

Both solvers accept a *subset* of nets plus boundary values, which is how
the per-FUB partitioned mode (paper Section 5.2) reuses them: inside one
relaxation iteration each FUB is solved against the FUBIO values exported
by its neighbours in the previous iteration.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Mapping

from repro.core.graphmodel import AvfModel
from repro.core.pavf import Atom, SetInterner, TOP_SET, collapse_if_large, union


def shared_interner(interner: SetInterner | None, model: AvfModel) -> SetInterner:
    """Normalize an optional interner argument (None -> fresh table).

    Both directional solvers intern the sets they produce through this
    helper's result, so passing one :class:`SetInterner` to a forward and a
    backward solve (as :mod:`repro.core.relaxation` does across all FUBs
    and iterations) shares every duplicate annotation set between them.
    A fresh table registers *model*'s atoms up front, so their ids are
    ranked once instead of as each first appears in a set.
    """
    if interner is None:
        interner = SetInterner()
        interner.register(model.atoms())
    return interner


def solve_forward(
    model: AvfModel,
    *,
    nets: Iterable[str] | None = None,
    boundary: Mapping[str, frozenset[Atom]] | None = None,
    max_terms: int = 0,
    interner: SetInterner | None = None,
) -> dict[str, frozenset[Atom]]:
    """Forward propagation: f(n) = union of f over fan-in.

    Fixed nodes (``model.forward_fixed``) keep their source sets. Fan-in
    nets outside *nets* take their value from *boundary*, defaulting to the
    conservative TOP (= pAVF 1.0), which is also every node's initial
    annotation in the paper (Eq 7).
    """
    graph = model.graph
    subset = set(nets) if nets is not None else None
    boundary = boundary or {}
    fixed = model.forward_fixed

    members = subset if subset is not None else graph.nodes.keys()
    out: dict[str, frozenset[Atom]] = {}
    interner = shared_interner(interner, model)

    indegree: dict[str, int] = {}
    dependents: dict[str, list[str]] = {}
    ready: deque[str] = deque()
    for net in members:
        if net in fixed:
            out[net] = fixed[net]
            ready.append(net)
            indegree[net] = 0
            continue
        deps = [
            d
            for d in graph.nodes[net].fanin
            if (subset is None or d in subset) and d not in fixed
        ]
        indegree[net] = len(deps)
        if not deps:
            ready.append(net)
        for d in deps:
            dependents.setdefault(d, []).append(net)

    def value_for(driver: str) -> frozenset[Atom]:
        if driver in fixed:
            return fixed[driver]
        if subset is not None and driver not in subset:
            return boundary.get(driver, TOP_SET)
        return out[driver]

    processed = 0
    while ready:
        net = ready.popleft()
        processed += 1
        if net not in out:  # not fixed: compute from fan-in
            fanin = graph.nodes[net].fanin
            if not fanin:
                out[net] = frozenset()
            elif len(fanin) == 1:
                out[net] = value_for(fanin[0])
            else:
                merged = collapse_if_large(union(*(value_for(d) for d in fanin)), max_terms)
                out[net] = interner.canon(merged)
        for dep in dependents.get(net, ()):
            indegree[dep] -= 1
            if indegree[dep] == 0:
                ready.append(dep)

    if processed != len(indegree):
        stuck = [n for n, d in indegree.items() if d > 0][:8]
        raise RuntimeError(f"forward solve: cyclic dependencies remain at {stuck}")
    return out


def solve_backward(
    model: AvfModel,
    *,
    nets: Iterable[str] | None = None,
    boundary: Mapping[str, frozenset[Atom]] | None = None,
    max_terms: int = 0,
    dangling: str = "unace",
    interner: SetInterner | None = None,
) -> dict[str, frozenset[Atom]]:
    """Backward propagation: b(n) = union of what each consumer passes up.

    A consumer with a fixed through-set (structure write bit, loop node,
    control register) contributes that set; an ordinary consumer
    contributes its own computed b; static sinks (memory write pins, port
    addresses, primary outputs) contribute their atoms. Consumers outside
    *nets* contribute the *boundary* value (default TOP).

    ``dangling`` controls nodes with no consumers at all: ``"unace"``
    resolves them to the empty set (a value nobody reads is un-ACE — a
    refinement the walk engine cannot express), ``"top"`` keeps the
    paper's conservative 1.0 so the two engines match exactly.
    """
    graph = model.graph
    subset = set(nets) if nets is not None else None
    boundary = boundary or {}
    through_fixed = model.contrib_through
    fanout = graph.fanout()

    members = subset if subset is not None else graph.nodes.keys()
    out: dict[str, frozenset[Atom]] = {}
    interner = shared_interner(interner, model)

    indegree: dict[str, int] = {}
    dependents: dict[str, list[str]] = {}
    ready: deque[str] = deque()
    for net in members:
        deps = [
            m
            for m in fanout.get(net, ())
            if (subset is None or m in subset) and m not in through_fixed
        ]
        indegree[net] = len(deps)
        if not deps:
            ready.append(net)
        for m in deps:
            dependents.setdefault(m, []).append(net)

    def through(consumer: str) -> frozenset[Atom]:
        if consumer in through_fixed:
            return through_fixed[consumer]
        if subset is not None and consumer not in subset:
            return boundary.get(consumer, TOP_SET)
        return out[consumer]

    processed = 0
    while ready:
        net = ready.popleft()
        processed += 1
        pieces = [through(m) for m in fanout.get(net, ())]
        sinks = model.static_sinks.get(net)
        if sinks:
            pieces.append(frozenset(sinks))
        if not pieces:
            out[net] = frozenset() if dangling == "unace" else TOP_SET
        elif len(pieces) == 1:
            out[net] = pieces[0]
        else:
            merged = collapse_if_large(union(*pieces), max_terms)
            out[net] = interner.canon(merged)
        for dep in dependents.get(net, ()):
            indegree[dep] -= 1
            if indegree[dep] == 0:
                ready.append(dep)

    if processed != len(indegree):
        stuck = [n for n, d in indegree.items() if d > 0][:8]
        raise RuntimeError(f"backward solve: cyclic dependencies remain at {stuck}")
    return out
