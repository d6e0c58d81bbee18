"""Differential test of the scheduling loop's write buffer.

The fast engine keeps the write buffer in loop locals (a deque of drain
completions and the last of them); the reference engine drives the seed
:class:`~oracles.write_buffer.WriteBuffer`.  Store-burst programs —
bursts longer than the buffer, a load right behind a burst, stores
spread out by ALU work, streaming stores that miss the DL1 — are timed
under every policy (WT-parity's DL1 is write-through, so its stores
drain over the bus) with 1, 2, 4 and 8 entries, and every statistic and
stall field must match.
"""

from __future__ import annotations

import pytest

from repro.core.policies import EccPolicyKind, make_policy
from repro.functional.interpreter import run_program
from repro.isa.assembler import assemble
from repro.pipeline.config import PipelineConfig
from repro.pipeline.timing import TimingPipeline
from repro.scenarios.spec import SimulationSpec

from oracles.functional import run_reference
from oracles.hierarchy import MemoryHierarchy
from oracles.timing import ReferenceTimingPipeline


def _looped(body: str, iterations: int = 4) -> str:
    return f"""
.data
buffer:
    .space 2048
.text
main:
    set buffer, r1
    set 7, r4
    set {iterations}, r20
loop:
{body}
    add r1, 256, r1
    subcc r20, 1, r20
    bg loop
    halt
"""


def _stores(count: int, stride: int = 4) -> str:
    return "\n".join(f"    st r4, [r1+{stride * k}]" for k in range(count))


PROGRAMS = {
    # Back-to-back stores, longer than every buffer size tested.
    "burst": _looped(_stores(12)),
    # A load (and its consumer) right behind a burst waits for the drain.
    "load-after-burst": _looped(_stores(9) + "\n    ld [r1+8], r5\n    add r5, r4, r6"),
    # Stores spread out by ALU work drain partly between pushes.
    "spaced": _looped(
        "\n".join(f"    st r4, [r1+{4 * k}]\n    add r4, 1, r4\n    add r6, r4, r6" for k in range(6))
    ),
    # One store per DL1 line: write-back misses with long drains.
    "streaming": _looped(_stores(8, stride=32) + "\n    ld [r1+4], r5"),
}

POLICIES = [
    EccPolicyKind.NO_ECC,
    EccPolicyKind.EXTRA_CYCLE,
    EccPolicyKind.EXTRA_STAGE,
    EccPolicyKind.LAEC,
    EccPolicyKind.WT_PARITY,
]


@pytest.fixture(scope="module")
def traces():
    compiled = {}
    for name, source in PROGRAMS.items():
        program = assemble(source, name=name)
        compiled[name] = (run_program(program), run_reference(program))
    return compiled


@pytest.mark.parametrize("entries", [1, 2, 4, 8])
@pytest.mark.parametrize("policy_kind", POLICIES, ids=lambda kind: kind.value)
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_write_buffer_matches_reference(traces, name, policy_kind, entries):
    trace, records = traces[name]
    policy = make_policy(policy_kind)
    hierarchy = SimulationSpec(policy=policy).resolved_hierarchy()
    config = PipelineConfig(write_buffer_entries=entries)
    reference = ReferenceTimingPipeline(policy, MemoryHierarchy(hierarchy), config).run(records)
    optimized = TimingPipeline(policy, hierarchy, config).run(trace)
    assert optimized.stats.as_dict() == reference.stats.as_dict()
    assert optimized.stats.stalls.as_dict() == reference.stats.stalls.as_dict()
    assert optimized.stats.lookahead == reference.stats.lookahead


def test_programs_exercise_both_write_buffer_stalls(traces):
    """The bursts fill a one-entry buffer and the load waits for a drain."""
    policy = make_policy(EccPolicyKind.NO_ECC)
    hierarchy = SimulationSpec(policy=policy).resolved_hierarchy()

    def stalls(name, entries):
        config = PipelineConfig(write_buffer_entries=entries)
        return TimingPipeline(policy, hierarchy, config).run(traces[name][0]).stats.stalls

    assert stalls("burst", 1).write_buffer_full > 0
    assert stalls("load-after-burst", 1).write_buffer_full > 0
    assert stalls("load-after-burst", 8).write_buffer_drain > 0
