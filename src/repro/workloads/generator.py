"""Seeded synthetic trace generation.

A :class:`WorkloadSpec` describes a workload's statistical character; the
generator turns it into a concrete dynamic trace with a realistic register
dataflow: destinations are drawn from a small working set of registers,
sources prefer recently-written registers (short dependence distances for
low-ILP codes, long for high-ILP codes), and a configurable fraction of
results is deliberately dead (written, never consumed) to exercise the
un-ACE machinery.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import accumulate

from repro.errors import TraceError
from repro.perfmodel.isa import (
    Inst,
    OP_ALU,
    OP_BRANCH,
    OP_LOAD,
    OP_MUL,
    OP_NOP,
    OP_OUTPUT,
    OP_PREFETCH,
    OP_STORE,
)
from repro.perfmodel.trace import Trace


@dataclass(frozen=True)
class WorkloadSpec:
    """Statistical description of one synthetic workload."""

    name: str
    length: int = 10_000
    seed: int = 1
    # Instruction mix (normalized internally).
    frac_alu: float = 0.45
    frac_mul: float = 0.05
    frac_load: float = 0.22
    frac_store: float = 0.12
    frac_branch: float = 0.12
    frac_nop: float = 0.02
    frac_prefetch: float = 0.02
    # Dataflow character.
    regs: int = 24
    dep_distance: int = 4       # how far back sources reach (smaller = serial)
    dead_fraction: float = 0.15  # results intentionally never consumed
    # Memory behaviour.
    working_set: int = 4096      # distinct addresses touched
    stride: int = 8
    random_access_fraction: float = 0.3
    # Control behaviour.
    taken_fraction: float = 0.55
    mispredict_rate: float = 0.05
    imm_fraction: float = 0.35
    # Fraction of outputs (architecturally visible ACE roots).
    output_every: int = 512

    def mix(self) -> list[tuple[str, float]]:
        raw = [
            (OP_ALU, self.frac_alu),
            (OP_MUL, self.frac_mul),
            (OP_LOAD, self.frac_load),
            (OP_STORE, self.frac_store),
            (OP_BRANCH, self.frac_branch),
            (OP_NOP, self.frac_nop),
            (OP_PREFETCH, self.frac_prefetch),
        ]
        total = sum(w for _, w in raw)
        if total <= 0:
            raise TraceError(f"{self.name}: empty instruction mix")
        return [(op, w / total) for op, w in raw]


def generate_trace(spec: WorkloadSpec) -> Trace:
    """Generate the dynamic trace described by *spec* (deterministic)."""
    rng = random.Random(spec.seed)
    mix = spec.mix()
    ops = [op for op, _ in mix]
    # What rng.choices(ops, weights) accumulates on every call: the same
    # draws, summed once per trace.
    cum_weights = list(accumulate(w for _, w in mix))
    trace = Trace(name=spec.name)

    recent_writes: list[int] = []   # registers written recently, newest last
    dead_regs = list(range(spec.regs - max(1, int(spec.regs * 0.2)), spec.regs))
    addr_cursor = rng.randrange(spec.working_set)

    def pick_src() -> int:
        if recent_writes and rng.random() > 0.2:
            window = recent_writes[-spec.dep_distance:]
            return rng.choice(window)
        return rng.randrange(spec.regs)

    def pick_dst(will_be_dead: bool) -> int:
        if will_be_dead and dead_regs:
            return rng.choice(dead_regs)
        return rng.randrange(spec.regs - len(dead_regs)) if spec.regs > len(dead_regs) else 0

    def next_addr() -> int:
        nonlocal addr_cursor
        if rng.random() < spec.random_access_fraction:
            addr_cursor = rng.randrange(spec.working_set)
        else:
            addr_cursor = (addr_cursor + spec.stride) % spec.working_set
        return addr_cursor

    for seq in range(spec.length):
        if spec.output_every > 0 and seq > 0 and seq % spec.output_every == 0:
            op = OP_OUTPUT
        else:
            op = rng.choices(ops, cum_weights=cum_weights)[0]
        inst = Inst(seq=seq, op=op)
        if op in (OP_ALU, OP_MUL):
            dead = rng.random() < spec.dead_fraction
            inst.dst = pick_dst(dead)
            nsrc = 2 if rng.random() > spec.imm_fraction else 1
            inst.srcs = tuple(pick_src() for _ in range(nsrc))
            inst.imm = nsrc == 1
            if not dead:
                recent_writes.append(inst.dst)
        elif op == OP_LOAD:
            dead = rng.random() < spec.dead_fraction
            inst.dst = pick_dst(dead)
            inst.srcs = (pick_src(),)
            inst.addr = next_addr()
            if not dead:
                recent_writes.append(inst.dst)
        elif op == OP_STORE:
            inst.srcs = (pick_src(), pick_src())
            inst.addr = next_addr()
        elif op == OP_PREFETCH:
            inst.addr = next_addr()
        elif op == OP_BRANCH:
            inst.srcs = (pick_src(),)
            inst.taken = rng.random() < spec.taken_fraction
            inst.mispredicted = rng.random() < spec.mispredict_rate
        elif op == OP_OUTPUT:
            inst.srcs = (pick_src(),)
        trace.insts.append(inst)
        if len(recent_writes) > 64:
            del recent_writes[:32]

    trace.validate()
    return trace
