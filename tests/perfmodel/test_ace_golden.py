"""Pinned ACE outputs: the perfmodel + lifetime analyzer are bit-identical.

``ace_golden.json`` records, for every trace of
``default_suite(per_class=2, length=1000)`` plus three hand-shaped
traces (a serial ALU chain, a store-heavy head-of-line trace and a
mispredict-heavy wrong-path trace):

* a digest of the generated, ACE-marked instructions;
* every :class:`PipelineStats` counter;
* every :class:`StructureAvf` counter, a digest of its deadline
  histogram, the structure's mean occupancy and ``mean_ace_latency``;

and, for the suite, the averaged ports, a digest of their pooled deadline
summaries and a digest of the rendered structure table. Floats
round-trip through JSON exactly (``repr``), so equality here is bit
equality — except for the suite-averaged ``pavf_r``/``pavf_w``/``avf``:
those are builtin ``sum()`` over per-trace floats, which Python 3.12+
adds with compensated summation, so their last bit depends on the
interpreter. The test recomputes them from the pinned per-trace
counters on the running interpreter instead.

The fixture is only ever rewritten on purpose, when a change is meant to
move ACE results::

    PYTHONPATH=src python -m tests.perfmodel.test_ace_golden
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, fields
from pathlib import Path

import pytest

from repro.ace.lifetime import StructureAvf
from repro.ace.portavf import (
    average_ports, ports_from_analysis, suite_ports_and_table,
)
from repro.perfmodel.isa import Inst
from repro.perfmodel.machine import MachineConfig, run_workload
from repro.perfmodel.trace import Trace, mark_ace
from repro.workloads import default_suite
from repro.workloads.generator import WorkloadSpec, generate_trace
from repro.workloads.suite import make_suite

FIXTURE = Path(__file__).with_name("ace_golden.json")

_COUNTERS = [f.name for f in fields(StructureAvf) if f.name != "deadlines"]


def _serial_chain() -> Trace:
    insts = [Inst(seq=i, op="alu", dst=1, srcs=(1,)) for i in range(600)]
    return mark_ace(Trace("serial-chain", insts))


def _store_head_of_line() -> Trace:
    spec = WorkloadSpec(
        name="store-hol", length=1500, seed=11, frac_alu=0.15, frac_mul=0.0,
        frac_load=0.25, frac_store=0.55, frac_branch=0.05, frac_nop=0.0,
        frac_prefetch=0.0, dep_distance=2, random_access_fraction=0.9,
    )
    return generate_trace(spec)


def _wrong_path() -> Trace:
    spec = WorkloadSpec(
        name="wrong-path", length=1500, seed=23, frac_alu=0.5, frac_load=0.1,
        frac_store=0.05, frac_branch=0.35, frac_nop=0.0, frac_prefetch=0.0,
        mispredict_rate=0.35,
    )
    return generate_trace(spec)


def _extra_traces() -> list[tuple[Trace, MachineConfig]]:
    return [
        (_serial_chain(), MachineConfig()),
        (_store_head_of_line(), MachineConfig(miss_rate=0.5, miss_latency=40)),
        (_wrong_path(), MachineConfig()),
    ]


def _digest(obj) -> str:
    """sha256 of ``repr``: exact for ints, strings and floats alike."""
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _inst_digest(trace: Trace) -> str:
    return _digest([
        (inst.seq, inst.op, inst.dst, inst.srcs, inst.addr, inst.taken,
         inst.mispredicted, inst.imm, inst.ace)
        for inst in trace.insts
    ])


def _snapshot(trace: Trace, config: MachineConfig | None = None) -> dict:
    result = run_workload(trace, config)
    structures = {}
    for name, stats in sorted(result.structures.items()):
        entry = {key: getattr(stats, key) for key in _COUNTERS}
        entry["deadline_events"] = stats.deadlines.events
        entry["deadline_histogram_sha256"] = _digest(
            sorted(stats.deadlines.histogram.items()))
        entry["occupancy"] = result.occupancy[name]
        entry["mean_ace_latency"] = result.analyzer.mean_ace_latency(name)
        structures[name] = entry
    return {
        "insts": _inst_digest(trace),
        "stats": asdict(result.stats),
        "structures": structures,
    }


_SUITE = dict(per_class=2, length=1000)


def _suite_traces() -> list[Trace]:
    return default_suite(**_SUITE)


def _suite_summary(ports: dict, table: str) -> dict:
    return {
        "ports": {
            name: {"pavf_r": p.pavf_r, "pavf_w": p.pavf_w, "avf": p.avf,
                   "deadlines_sha256": _digest(sorted(p.deadlines.items()))}
            for name, p in sorted(ports.items())
        },
        "table_sha256": hashlib.sha256(table.encode()).hexdigest(),
    }


def record() -> str:
    """The fixture text: one line per trace, so a diff names the trace."""
    traces = {t.name: _snapshot(t) for t in _suite_traces()}
    for trace, config in _extra_traces():
        traces[trace.name] = _snapshot(trace, config)
    lines = [f"  {json.dumps(name)}: {json.dumps(snap, sort_keys=True)}"
             for name, snap in sorted(traces.items())]
    suite = json.dumps(
        _suite_summary(*suite_ports_and_table(_suite_traces())),
        sort_keys=True)
    return ('{"suite": ' + suite + ',\n "traces": {\n'
            + ",\n".join(lines) + "\n}}\n")


def _roundtrip(obj):
    return json.loads(json.dumps(obj))


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_suite_class(golden):
    classes = {name.rsplit("-", 1)[0] for name in golden["traces"]}
    assert {"specint", "specfp", "oltp", "web", "hpc", "pointer", "kernel",
            "idle"} <= classes
    assert {"serial-chain", "store-hol", "wrong-path"} <= set(golden["traces"])


@pytest.mark.parametrize("index", range(16))
def test_suite_trace_matches_golden(golden, index):
    trace = generate_trace(make_suite(**_SUITE)[index])
    assert _roundtrip(_snapshot(trace)) == golden["traces"][trace.name]


@pytest.mark.parametrize("index", range(3))
def test_shaped_trace_matches_golden(golden, index):
    trace, config = _extra_traces()[index]
    assert _roundtrip(_snapshot(trace, config)) == golden["traces"][trace.name]


def test_shaped_traces_exercise_their_corner(golden):
    chain = golden["traces"]["serial-chain"]["stats"]
    assert chain["cycles"] >= 600  # one ALU op per cycle at best
    hol = golden["traces"]["store-hol"]["stats"]
    assert hol["dispatch_stall_cycles"] > 0
    wrong = golden["traces"]["wrong-path"]["stats"]
    assert wrong["wrong_path_fetched"] > 0


_SUM_DEPENDENT = ("pavf_r", "pavf_w", "avf")


def test_suite_ports_and_table_match_golden(golden):
    traces = _suite_traces()
    ports, table = suite_ports_and_table(traces)
    summary = _roundtrip(_suite_summary(ports, table))
    pinned = golden["suite"]
    assert summary["table_sha256"] == pinned["table_sha256"]
    assert summary["ports"].keys() == pinned["ports"].keys()

    # The suite averages, rebuilt from the pinned per-trace counters
    # (suite order, the running interpreter's sum()), are bit-equal to
    # what the suite reports, and agree with the recorded values to
    # rounding.
    expected = average_ports(
        ports_from_analysis({
            name: StructureAvf(**{key: counters[key] for key in _COUNTERS})
            for name, counters in golden["traces"][t.name]["structures"].items()
        })
        for t in traces
    )
    for name, port in summary["ports"].items():
        for key in _SUM_DEPENDENT:
            assert port[key] == getattr(expected[name], key), (name, key)
            assert math.isclose(port[key], pinned["ports"][name][key],
                                rel_tol=1e-13), (name, key)
        # Deadline weights are whole bit counts, so the pooled summary's
        # float sums are exact on any interpreter and its digest is pinned.
        pooled = ports[name].deadlines
        assert all(float(pooled[key]).is_integer()
                   for key in ("total_weight", "mass_cycles", "ace_bit_cycles"))
        assert (port["deadlines_sha256"]
                == pinned["ports"][name]["deadlines_sha256"])


if __name__ == "__main__":
    FIXTURE.write_text(record())
    print(f"wrote {FIXTURE}")
