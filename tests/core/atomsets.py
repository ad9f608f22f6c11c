"""Hypothesis inputs for the set interner and the set evaluators.

A script interns random atom sets in random order into a table whose
atom ids were registered for only part of the atom pool, then joins some
of them with the compiled kernels' union, and finally interns *late*
sets — sets whose atoms the table may never have seen, arriving after
evaluators were built on it. Late atoms that sort before registered ones
force the table to re-rank.
"""

from __future__ import annotations

from dataclasses import dataclass

from hypothesis import strategies as st

from repro.core.pavf import (
    BOUNDARY,
    CONST,
    CTRL,
    LOOP,
    READ,
    WRITE,
    Atom,
    PavfEnv,
    SetInterner,
)

POOL = tuple(
    Atom(kind, name, bit)
    for kind in (BOUNDARY, CONST, CTRL, LOOP, READ, WRITE)
    for name in ("a", "m", "z")
    for bit in (0, 3)
)


@dataclass
class Script:
    registered: list[Atom]
    early: list[frozenset[Atom]]
    joins: list[list[int]]
    max_terms: int
    late: list[frozenset[Atom]]

    def build(self) -> tuple[SetInterner, list[int]]:
        """Intern everything but the late sets; return the table and its ids."""
        interner = SetInterner()
        interner.register(self.registered)
        sids = [interner.id_of(atoms) for atoms in self.early]
        for picks in self.joins:
            interner.union_id([sids[p % len(sids)] for p in picks], self.max_terms)
        return interner, list(range(len(interner)))

    def add_late(self, interner: SetInterner) -> list[int]:
        """Intern the late sets; return every id of the grown table."""
        for atoms in self.late:
            interner.id_of(atoms)
        return list(range(len(interner)))


_sets = st.frozensets(st.sampled_from(POOL), min_size=1, max_size=12)


@st.composite
def scripts(draw) -> Script:
    order = draw(st.permutations(POOL))
    return Script(
        registered=order[: draw(st.integers(0, len(POOL)))],
        early=draw(st.lists(_sets, min_size=1, max_size=20)),
        joins=draw(
            st.lists(
                st.lists(st.integers(0, 999), min_size=2, max_size=4), max_size=8
            )
        ),
        max_terms=draw(st.sampled_from([0, 0, 6])),
        late=draw(st.lists(_sets, max_size=8)),
    )


@st.composite
def envs(draw) -> PavfEnv:
    """A binding for part of the pool; the rest falls to the defaults."""
    env = PavfEnv(unbound_default=draw(st.sampled_from([0.0, 0.05, 1.0])))
    for atom in POOL:
        value = draw(st.none() | st.floats(0.0, 0.3))
        if value is not None:
            env.bind(atom, value)
    if draw(st.booleans()):
        env.bind_kind(LOOP, draw(st.floats(0.0, 1.0)))
    return env


def tree_sum(atoms: frozenset[Atom], env: PavfEnv) -> float:
    """Reference value: the capped balanced tree over sorted atom values."""
    level = [env.lookup(atom) for atom in sorted(atoms)]
    while len(level) & (len(level) - 1):
        level.append(0.0)
    while len(level) > 1:
        level = [level[i] + level[i + 1] for i in range(0, len(level), 2)]
    return min(level[0], 1.0) if level else 0.0
