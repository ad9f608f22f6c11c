"""The pAVF value algebra.

The paper propagates "essentially a signal probability (the probability of
an ACE bit instead of the probability of a one or zero)". Two operations
appear:

* **Union** at logical joins (forward) and distribution splits (backward):
  "the union simplifies to the sum of the pAVFs" for non-overlapping
  sources, and is idempotent for identical sources — the Figure 7 example
  simplifies ``pAVF_1 ∪ (pAVF_1 ∪ pAVF_2)`` to ``pAVF_1 ∪ pAVF_2``.
* **MIN** when reconciling the forward and backward estimates (Table 1)
  and when merging refined values at FUB boundaries (Eq 7).

To make the union exact (idempotent, no double counting on reconvergent
fanout) a propagated value is a *frozenset of atoms*; each atom is a
symbolic source — a structure port bit, a control register, a loop
boundary, a boundary pseudo-structure port or the conservative TOP. The
numeric value of a set is the capped sum of its atoms' values under a
:class:`PavfEnv` binding. Keeping sets symbolic is also what enables the
paper's closed-form re-evaluation optimization (Section 5.2): new workload
pAVFs are just a new environment.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter
from typing import Iterable, Sequence

# Atom kinds.
READ = "read"        # structure read-port bit (pAVF_R source)
WRITE = "write"      # structure write-port bit (pAVF_W sink)
CTRL = "ctrl"        # configuration control register (pAVF_R = 100%)
LOOP = "loop"        # loop-boundary node (injected static pAVF)
BOUNDARY = "boundary"  # RTL-boundary pseudo-structure port
CONST = "const"      # tie cell (conservative static source)
TOP_KIND = "top"     # the conservative initial value 1.0


@dataclass(frozen=True, order=True)
class Atom:
    """One symbolic pAVF source/sink term.

    ``name`` is the structure name (READ/WRITE), net name (CTRL/LOOP/CONST)
    or port name (BOUNDARY); ``bit`` is the bit index within a structure
    port (0 for singleton kinds).
    """

    kind: str
    name: str
    bit: int = 0

    def label(self) -> str:
        prefix = {READ: "pR", WRITE: "pW", CTRL: "ctrl", LOOP: "loop",
                  BOUNDARY: "bnd", CONST: "const", TOP_KIND: "TOP"}[self.kind]
        if self.kind == TOP_KIND:
            return "TOP"
        if self.kind in (READ, WRITE):
            return f"{prefix}({self.name}.{self.bit})"
        return f"{prefix}({self.name})"


TOP = Atom(TOP_KIND, "", 0)
# Canonical atom order as a C-level key (the dataclass order, without
# a generated ``__lt__`` call per comparison).
_atom_key = attrgetter("kind", "name", "bit")
TOP_SET: frozenset[Atom] = frozenset((TOP,))
EMPTY: frozenset[Atom] = frozenset()


@dataclass
class PavfEnv:
    """Binding of atoms to numeric pAVF values.

    Lookup precedence: exact ``(kind, name, bit)`` entry, then per-kind
    default, then the global defaults (TOP -> 1.0, anything unbound ->
    ``unbound_default``). Structure-port values are normally loaded from
    the ACE model output (:mod:`repro.ace.portavf`).
    """

    values: dict[Atom, float] = field(default_factory=dict)
    kind_defaults: dict[str, float] = field(default_factory=dict)
    unbound_default: float = 1.0

    def bind(self, atom: Atom, value: float) -> None:
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"pAVF out of range for {atom.label()}: {value}")
        self.values[atom] = value

    def bind_kind(self, kind: str, value: float) -> None:
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"pAVF out of range for kind {kind!r}: {value}")
        self.kind_defaults[kind] = value

    def lookup(self, atom: Atom) -> float:
        if atom.kind == TOP_KIND:
            return 1.0
        found = self.values.get(atom)
        if found is not None:
            return found
        found = self.kind_defaults.get(atom.kind)
        if found is not None:
            return found
        return self.unbound_default

    def copy(self) -> "PavfEnv":
        env = PavfEnv(dict(self.values), dict(self.kind_defaults), self.unbound_default)
        return env


def union(*sets: frozenset[Atom]) -> frozenset[Atom]:
    """Exact union of pAVF sets (idempotent; TOP absorbs everything)."""
    merged: set[Atom] = set()
    for s in sets:
        if TOP in s:
            return TOP_SET
        merged.update(s)
    return frozenset(merged)


def value_of(atoms: frozenset[Atom], env: PavfEnv) -> float:
    """Numeric value of a pAVF set: capped sum of atom values.

    The empty set evaluates to 0.0 — it is the value of a node whose data
    can never reach an ACE consumer (dangling logic is un-ACE).
    """
    if TOP in atoms:
        return 1.0
    total = 0.0
    for atom in atoms:
        total += env.lookup(atom)
        if total >= 1.0:
            return 1.0
    return total


def capped_sum(values) -> float:
    """Plain numeric union (paper Eq 5/10): sum capped at 1.0."""
    total = 0.0
    for v in values:
        total += v
        if total >= 1.0:
            return 1.0
    return total


class SetInterner:
    """Shared table of canonical pAVF sets.

    Propagation produces the same annotation set at many nodes (every net
    fed by one reconvergent cone carries an identical frozenset). Interning
    keeps one instance per distinct set — in *both* walk directions and
    across relaxation iterations — and assigns each a dense integer id the
    compiled kernels (:mod:`repro.core.compiled`) index with.

    Id 0 is always the empty set and id 1 the TOP singleton.

    Atoms get dense integer ids too, in canonical ``(kind, name, bit)``
    order: ``atoms[i]`` is atom *i*. Each set's members are stored as the
    sorted tuple of its atom ids (``members[sid]``), fixed when the set is
    interned, so its canonical order never needs an :class:`Atom`
    comparison. An atom that arrives after the table was built and sorts
    before existing atoms re-ranks the table: ids are reassigned in
    order and every member tuple is relabelled (the relabelling is
    monotone, so tuples stay sorted). Ids only move when atoms are added,
    so holders of atom-indexed value vectors rebuild them whenever
    ``len(atoms)`` differs from their vector's length.
    """

    EMPTY_ID = 0
    TOP_ID = 1

    __slots__ = ("sets", "members", "atoms", "_ids", "_atom_ids")

    def __init__(self) -> None:
        self.sets: list[frozenset[Atom]] = [EMPTY, TOP_SET]
        self.members: list[tuple[int, ...]] = [(), (0,)]
        self.atoms: list[Atom] = [TOP]
        self._ids: dict[frozenset[Atom], int] = {EMPTY: 0, TOP_SET: 1}
        self._atom_ids: dict[Atom, int] = {TOP: 0}

    def __len__(self) -> int:
        return len(self.sets)

    def __getstate__(self):
        # Member tuples travel as two flat arrays: one pickled object
        # instead of one per set.
        members = self.members
        flat = array("i", chain.from_iterable(members))
        return self.atoms, self.sets, array("i", map(len, members)), flat

    def __setstate__(self, state) -> None:
        self.atoms, self.sets, lengths, flat = state
        self._ids = {atoms: sid for sid, atoms in enumerate(self.sets)}
        shared = list(range(len(self.atoms)))  # one int object per atom id
        self._atom_ids = dict(zip(self.atoms, shared))
        ids = list(map(shared.__getitem__, flat))
        members = self.members = []
        start = 0
        for k in lengths:
            members.append(tuple(ids[start : start + k]))
            start += k

    def register(self, atoms: Iterable[Atom]) -> None:
        """Give every atom of *atoms* an id, keeping ids in canonical order."""
        known = self._atom_ids
        fresh = sorted(set(atoms).difference(known), key=_atom_key)
        if not fresh:
            return
        table = self.atoms
        if _atom_key(fresh[0]) > _atom_key(table[-1]):
            for atom in fresh:  # past the end of the order: ids only append
                known[atom] = len(table)
                table.append(atom)
            return
        ranked = sorted(table + fresh, key=_atom_key)
        known.clear()
        known.update((atom, aid) for aid, atom in enumerate(ranked))
        relabel = [known[atom] for atom in table].__getitem__
        members = self.members
        for sid, ids in enumerate(members):
            members[sid] = tuple(map(relabel, ids))
        table[:] = ranked

    def atom_ids(self, atoms: Iterable[Atom]) -> list[int]:
        """Current ids of *atoms*, registering any the table lacks."""
        atoms = list(atoms)
        self.register(atoms)
        known = self._atom_ids
        return [known[a] for a in atoms]

    def id_of(self, atoms: frozenset[Atom]) -> int:
        """Intern *atoms* and return its dense id."""
        sid = self._ids.get(atoms)
        if sid is None:
            known = self._atom_ids
            try:
                ids = sorted(map(known.__getitem__, atoms))
            except KeyError:
                self.register(atoms)
                ids = sorted(map(known.__getitem__, atoms))
            sid = len(self.sets)
            self._ids[atoms] = sid
            self.sets.append(atoms)
            self.members.append(tuple(ids))
        return sid

    def union_id(self, sids: Sequence[int], max_terms: int = 0) -> int:
        """Intern the union of sets *sids* (the compiled kernels' join).

        Same result as interning ``collapse_if_large(union(...))``. A new
        set's member tuple is the merge of its components' id tuples:
        its atoms are neither sorted nor looked up.
        """
        if self.TOP_ID in sids:
            return self.TOP_ID  # TOP absorbs the union
        merged = frozenset().union(*map(self.sets.__getitem__, sids))
        if 0 < max_terms < len(merged):
            return self.TOP_ID
        sid = self._ids.get(merged)
        if sid is None:
            members = self.members
            sid = len(self.sets)
            self._ids[merged] = sid
            self.sets.append(merged)
            merged_ids = set().union(*map(members.__getitem__, sids))
            members.append(tuple(sorted(merged_ids)))
        return sid

    def canon(self, atoms: frozenset[Atom]) -> frozenset[Atom]:
        """Return the shared canonical instance equal to *atoms*."""
        return self.sets[self.id_of(atoms)]

    def sorted_atoms(self, sid: int) -> tuple[Atom, ...]:
        """Members of set *sid* in stable (kind, name, bit) order."""
        return tuple(map(self.atoms.__getitem__, self.members[sid]))

    @property
    def _sorted(self) -> list[tuple[int, ...]]:
        # What perfbench/layertrace.py probes to tell a first-touch
        # ``sorted_atoms`` call from a cached one. Every set's canonical
        # order exists from intern time, so no entry is ever missing.
        return self.members


def collapse_if_large(atoms: frozenset[Atom], max_terms: int) -> frozenset[Atom]:
    """Replace oversized sets with TOP (conservative memory guard)."""
    if max_terms > 0 and len(atoms) > max_terms:
        return TOP_SET
    return atoms


def format_set(atoms: frozenset[Atom]) -> str:
    """Human-readable rendering, stable order (for closed-form printing)."""
    if not atoms:
        return "0"
    return " + ".join(a.label() for a in sorted(atoms))
