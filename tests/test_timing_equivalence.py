"""Regression: the fast-path timing engine is cycle-identical to the seed.

Every kernel is replayed under every Figure 8 policy (plus the
write-through parity scheme) through both the optimized
:class:`~repro.pipeline.timing.TimingPipeline`, reading the production
interpreter's columnar trace, and the preserved seed engine
:class:`~oracles.timing.ReferenceTimingPipeline`,
reading the object interpreter's records of the same run.
Total cycles, the full stall breakdown, look-ahead statistics, hierarchy
counters and chronograms must all match — this is what guarantees that
none of the paper's reported numbers moved.  The fast engine reads the
per-trace pre-pass (static facts, memory tape and front end), so the suite also
covers synthetic streams, non-default hierarchies and latencies, and
re-use of the pre-pass across runs.
"""

from __future__ import annotations

import copy
import pickle
from dataclasses import replace

import pytest

from repro.core.policies import EccPolicyKind, make_policy
from repro.functional.interpreter import run_program
from repro.memory.config import CacheConfig, MemoryHierarchyConfig, WritePolicy
from repro.pipeline.config import PipelineConfig
from repro.pipeline.timing import TimingPipeline
from repro.scenarios.spec import SimulationSpec
from repro.simulation import simulate_spec
from repro.workloads import KERNEL_NAMES, build_kernel
from repro.workloads.synthetic import SyntheticStreamConfig, SyntheticWorkloadGenerator

from oracles.functional import reference_trace, run_reference
from oracles.hierarchy import MemoryHierarchy
from oracles.timing import ReferenceTimingPipeline

POLICIES = [
    EccPolicyKind.NO_ECC,
    EccPolicyKind.EXTRA_CYCLE,
    EccPolicyKind.EXTRA_STAGE,
    EccPolicyKind.LAEC,
]

SCALE = 0.1


ALL_POLICIES = POLICIES + [EccPolicyKind.WT_PARITY]


def _run_both(
    policy_kind, traces, *, chronogram_window=0, pipeline_config=None, hierarchy=None
):
    """Time ``traces = (columnar trace, reference records)`` of one run
    through the fast and the reference engine."""
    trace, records = traces
    policy = make_policy(policy_kind)
    config = pipeline_config or PipelineConfig()
    if chronogram_window:
        config = replace(config, chronogram_window=chronogram_window)
    hierarchy = hierarchy or SimulationSpec(policy=policy).resolved_hierarchy()
    reference = ReferenceTimingPipeline(
        policy, MemoryHierarchy(hierarchy), config
    ).run(records)
    optimized = TimingPipeline(policy, hierarchy, config).run(trace)
    return reference, optimized


def _assert_identical(reference, optimized, label):
    ref_stats = reference.stats.as_dict()
    fast_stats = optimized.stats.as_dict()
    assert fast_stats == ref_stats, (
        f"{label}: "
        f"{ {k: (ref_stats[k], fast_stats[k]) for k in ref_stats if ref_stats[k] != fast_stats[k]} }"
    )
    assert optimized.stats.stalls.as_dict() == reference.stats.stalls.as_dict(), label
    assert optimized.dl1_stats == reference.dl1_stats, label
    assert optimized.bus_transactions == reference.bus_transactions, label
    assert optimized.bus_contention_cycles == reference.bus_contention_cycles, label


def _both_interpreters(program):
    return run_program(program), run_reference(program)


@pytest.fixture(scope="module")
def kernel_traces():
    return {
        name: _both_interpreters(build_kernel(name, scale=SCALE))
        for name in KERNEL_NAMES
    }


@pytest.mark.parametrize("policy_kind", POLICIES, ids=lambda kind: kind.value)
def test_engines_identical_on_all_kernels(kernel_traces, policy_kind):
    for name, trace in kernel_traces.items():
        reference, optimized = _run_both(policy_kind, trace)
        _assert_identical(reference, optimized, f"{name}/{policy_kind.value}")


def test_wt_parity_policy_identical(kernel_traces):
    for name in ("matrix", "pntrch", "ttsprk"):
        reference, optimized = _run_both(EccPolicyKind.WT_PARITY, kernel_traces[name])
        assert optimized.stats.as_dict() == reference.stats.as_dict(), name


@pytest.mark.parametrize("policy_kind", POLICIES, ids=lambda kind: kind.value)
def test_chronograms_identical(kernel_traces, policy_kind):
    trace = kernel_traces["matrix"]
    reference, optimized = _run_both(policy_kind, trace, chronogram_window=48)
    ref_entries = reference.chronogram.entries
    fast_entries = optimized.chronogram.entries
    assert len(fast_entries) == len(ref_entries)
    for ref_entry, fast_entry in zip(ref_entries, fast_entries):
        assert fast_entry.index == ref_entry.index
        assert fast_entry.label == ref_entry.label
        assert fast_entry.occupancy == ref_entry.occupancy


def test_non_default_pipeline_config_identical(kernel_traces):
    config = PipelineConfig(
        taken_branch_penalty=2,
        indirect_branch_penalty=3,
        mul_latency=4,
        div_latency=9,
        write_buffer_entries=2,
    )
    for policy_kind in (EccPolicyKind.EXTRA_STAGE, EccPolicyKind.LAEC):
        reference, optimized = _run_both(
            policy_kind, kernel_traces["ttsprk"], pipeline_config=config
        )
        assert optimized.stats.as_dict() == reference.stats.as_dict()


@pytest.mark.parametrize(
    "hierarchy",
    [
        MemoryHierarchyConfig(l1d=CacheConfig(name="dl1", write_policy=WritePolicy.WRITE_THROUGH)),
        MemoryHierarchyConfig().with_contention(3, "worst"),
    ],
    ids=["write-through", "worst-contention"],
)
def test_non_default_hierarchy_identical(kernel_traces, hierarchy):
    for policy_kind in ALL_POLICIES:
        reference, optimized = _run_both(
            policy_kind, kernel_traces["ttsprk"], hierarchy=hierarchy
        )
        _assert_identical(reference, optimized, policy_kind.value)


def test_latency_change_rederives_static_facts():
    """One trace timed under ``mul_latency=2`` and then ``5``: the
    static-fact cache must key on the latencies, not only the trace."""
    traces = _both_interpreters(build_kernel("matrix", scale=SCALE))
    trace = traces[0]
    cycles = []
    for mul_latency in (2, 5):
        config = PipelineConfig(mul_latency=mul_latency)
        reference, optimized = _run_both(
            EccPolicyKind.LAEC, traces, pipeline_config=config
        )
        _assert_identical(reference, optimized, f"mul_latency={mul_latency}")
        cycles.append(optimized.cycles)
    assert cycles[0] < cycles[1]
    assert sorted(trace.static_facts) == [(2, 18), (5, 18)]


A2_TRACES = [
    (parameter, value)
    for parameter, values in (
        ("load_fraction", (0.15, 0.25, 0.35)),
        ("dependent_load_fraction", (0.2, 0.6, 0.9)),
        ("address_from_previous_fraction", (0.0, 0.3, 0.8)),
    )
    for value in values
]


@pytest.mark.parametrize(
    "parameter,value", A2_TRACES, ids=[f"{p}={v}" for p, v in A2_TRACES]
)
def test_engines_identical_on_ablation_synthetic_traces(parameter, value):
    """The Ablation A2 streams (one shared ``Instruction`` per distinct
    shape) under every policy, at the artifact's trace length."""
    config = replace(SyntheticStreamConfig(instructions=8000), **{parameter: value})
    trace = SyntheticWorkloadGenerator(config).generate(name="a2")
    traces = (trace, reference_trace(trace))
    for policy_kind in ALL_POLICIES:
        reference, optimized = _run_both(policy_kind, traces)
        _assert_identical(reference, optimized, f"{parameter}={value}/{policy_kind.value}")


def test_policies_share_one_prepass_per_hierarchy():
    """The four Figure 8 policies share one tape, its block table and one
    front end, and so do back-end variants (an Execute latency, the
    write-buffer size).  A branch penalty changes only the front end;
    WT-parity's write-through DL1 is a different hierarchy and adds a
    second tape with its own block table, and a third front end."""
    program = build_kernel("pntrch", scale=SCALE)
    trace = run_program(program)
    simulate_spec(SimulationSpec(policy=POLICIES[0]), program=program, trace=trace)
    (tape,) = trace.memory_tapes.values()
    table = tape.blocks
    assert table is not None and table.shapes
    for policy_kind in POLICIES[1:]:
        simulate_spec(SimulationSpec(policy=policy_kind), program=program, trace=trace)
    for pipeline in (PipelineConfig(mul_latency=5), PipelineConfig(write_buffer_entries=2)):
        simulate_spec(
            SimulationSpec(policy=EccPolicyKind.LAEC, pipeline=pipeline),
            program=program,
            trace=trace,
        )
    assert len(trace.static_facts) == 2
    assert len(trace.memory_tapes) == 1
    assert len(trace.front_ends) == 1
    assert tape.blocks is table
    simulate_spec(
        SimulationSpec(
            policy=EccPolicyKind.LAEC, pipeline=PipelineConfig(taken_branch_penalty=2)
        ),
        program=program,
        trace=trace,
    )
    assert len(trace.memory_tapes) == 1
    assert len(trace.front_ends) == 2
    # A chronogram's recording pass is not cached.
    simulate_spec(
        SimulationSpec(
            policy=EccPolicyKind.LAEC, pipeline=PipelineConfig(chronogram_window=8)
        ),
        program=program,
        trace=trace,
    )
    assert len(trace.front_ends) == 2
    simulate_spec(
        SimulationSpec(policy=EccPolicyKind.WT_PARITY), program=program, trace=trace
    )
    assert len(trace.static_facts) == 2
    assert len(trace.memory_tapes) == 2
    assert len(trace.front_ends) == 3
    assert tape.blocks is table
    tables = [other.blocks for other in trace.memory_tapes.values()]
    assert tables[1] is not None and tables[1] is not table


def test_prepass_is_not_compared_or_pickled():
    program = build_kernel("pntrch", scale=SCALE)
    timed = run_program(program)
    simulate_spec(SimulationSpec(policy=EccPolicyKind.LAEC), program=program, trace=timed)
    assert timed.memory_tapes and timed.static_facts and timed.front_ends
    # The block table rides on the tape and takes no part in its equality.
    (tape,) = timed.memory_tapes.values()
    assert tape.blocks is not None
    assert tape == replace(tape, blocks=None)
    assert timed == run_program(program)
    restored = pickle.loads(pickle.dumps(timed))
    assert restored == timed
    # No tape, and so no block table, travels.
    assert restored.memory_tapes == {} and restored.static_facts == {}
    assert restored.front_ends == {}
    # Columns only: no golden-run state (snapshots, store history) travels.
    assert sorted(restored.__dict__) == [
        "addresses", "front_ends", "halted", "instructions", "memory_tapes",
        "pcs", "program_name", "static_facts", "taken",
    ]


@pytest.mark.parametrize("policy_kind", ALL_POLICIES, ids=lambda kind: kind.value)
def test_repeated_runs_are_independent(kernel_traces, policy_kind):
    """A second run of one pipeline repeats the first and leaves the
    first result untouched (no statistics or hierarchy state carry over)."""
    policy = make_policy(policy_kind)
    pipeline = TimingPipeline(
        policy, SimulationSpec(policy=policy).resolved_hierarchy(), PipelineConfig()
    )
    trace = kernel_traces["matrix"][0]
    first = pipeline.run(trace)
    snapshot = copy.deepcopy(first)
    second = pipeline.run(trace)
    assert second == snapshot
    assert first == snapshot
