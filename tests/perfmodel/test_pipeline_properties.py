"""Property tests: the pipeline completes, balances and issues oldest-ready
first on random workloads."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perfmodel.machine import MachineConfig, run_workload
from repro.perfmodel.pipeline import Pipeline
from repro.perfmodel.trace import mark_ace
from repro.workloads.generator import WorkloadSpec, generate_trace

spec_strategy = st.builds(
    WorkloadSpec,
    name=st.just("prop"),
    length=st.integers(200, 1200),
    seed=st.integers(0, 10_000),
    frac_alu=st.floats(0.2, 0.7),
    frac_load=st.floats(0.05, 0.4),
    frac_store=st.floats(0.0, 0.3),
    frac_branch=st.floats(0.0, 0.3),
    frac_nop=st.floats(0.0, 0.2),
    dep_distance=st.integers(1, 12),
    dead_fraction=st.floats(0.0, 0.7),
    mispredict_rate=st.floats(0.0, 0.2),
)


@settings(max_examples=25)
@given(spec_strategy)
def test_every_workload_completes_and_balances(spec):
    trace = generate_trace(spec)
    result = run_workload(trace)
    # Everything fetched eventually commits.
    assert result.stats.committed == len(trace)
    assert result.cycles >= len(trace) // 4  # 4-wide upper bound on IPC
    # Event balance: transit structures see one read per instruction; the
    # fetch buffer additionally absorbs squashed wrong-path writes.
    for name in ("fetch_buffer", "inst_queue", "rob"):
        stats = result.structures[name]
        assert stats.total_reads == len(trace)
        extra = result.stats.wrong_path_fetched if name == "fetch_buffer" else 0
        assert stats.total_writes == len(trace) + extra
    # AVFs and port rates are probabilities.
    for stats in result.structures.values():
        assert 0.0 <= stats.avf() <= 1.0
        assert 0.0 <= stats.pavf_r() <= 1.0
        assert 0.0 <= stats.pavf_w() <= 1.0
        assert stats.pavf_r_bitwise() <= stats.pavf_r() + 1e-12


@settings(max_examples=10)
@given(spec_strategy, st.integers(2, 6))
def test_smaller_rob_never_faster(spec, rob_shrink):
    # Wrong-path modelling off: its fetch-buffer occupancy interacts with
    # bubble timing and can wiggle cycle counts by a few cycles either way.
    trace_a = generate_trace(spec)
    big = run_workload(trace_a, MachineConfig(rob_entries=64, model_wrong_path=False))
    trace_b = generate_trace(spec)
    small = run_workload(
        trace_b, MachineConfig(rob_entries=64 // rob_shrink, model_wrong_path=False)
    )
    assert small.cycles >= big.cycles


class _IssueSpy:
    """Recorder that times each instruction's issue and completion.

    The issue of an instruction is its instruction-queue read; the
    completion of a register writer is its register-file write. Queue
    writes happen at dispatch, in program order, so the k-th one is
    instruction k; a register-file write is matched to the in-flight
    instruction that owns the physical register.
    """

    def __init__(self):
        self.pipeline = None
        self.dispatch: dict[int, int] = {}   # seq -> cycle
        self.issue: dict[int, int] = {}
        self.done: dict[int, int] = {}
        self._iq_owner: dict[int, int] = {}  # queue entry -> seq

    def on_write(self, struct, entry, cycle, ace, ace_bits, bits):
        if struct == "inst_queue":
            seq = len(self.dispatch)
            self.dispatch[seq] = cycle
            self._iq_owner[entry] = seq
        elif struct == "regfile":
            (seq,) = [s for s, f in self.pipeline._inflight.items()
                      if f.phys == entry]
            self.done[seq] = cycle

    def on_read(self, struct, entry, cycle, ace):
        if struct == "inst_queue":
            self.issue[self._iq_owner.pop(entry)] = cycle

    def on_release(self, struct, entry, cycle, consumed):
        pass


def _producers(trace):
    """seq -> the latest older writer of each source register."""
    last_writer: dict[int, int] = {}
    out = {}
    for inst in trace.insts:
        out[inst.seq] = [last_writer[r] for r in inst.srcs if r in last_writer]
        if inst.writes_register():
            last_writer[inst.dst] = inst.seq
    return out


@settings(max_examples=15)
@given(spec_strategy, st.sampled_from([1, 2, 4]))
def test_issue_waits_for_producers_and_picks_oldest_ready(spec, width):
    trace = mark_ace(generate_trace(spec))
    spy = _IssueSpy()
    pipeline = Pipeline(trace, MachineConfig(issue_width=width), recorder=spy)
    spy.pipeline = pipeline
    pipeline.run()
    producers = _producers(trace)
    assert len(spy.issue) == len(trace)

    # No instruction issues before every producer has completed.
    for seq, cycle in spy.issue.items():
        for producer in producers[seq]:
            assert spy.done[producer] <= cycle, (seq, producer)

    def ready_at(seq, cycle):
        # Dispatch runs after issue within a cycle, so an instruction is
        # first eligible the cycle after its dispatch.
        return (spy.dispatch[seq] < cycle
                and all(spy.done[p] <= cycle for p in producers[seq]))

    by_cycle: dict[int, list[int]] = {}
    for seq, cycle in spy.issue.items():
        by_cycle.setdefault(cycle, []).append(seq)
    for seq, issued_at in spy.issue.items():
        # Every cycle this instruction sat ready but unissued, the issue
        # slots were all taken, and all by older instructions.
        for cycle in range(spy.dispatch[seq] + 1, issued_at):
            if not ready_at(seq, cycle):
                continue
            chosen = by_cycle.get(cycle, [])
            assert len(chosen) == width, (seq, cycle, chosen)
            assert all(other < seq for other in chosen), (seq, cycle, chosen)
