"""The scheduling loop's block memo, timed against the reference engine.

:class:`~repro.pipeline.timing.TimingPipeline` times a repeated basic
block once per (block, entry state relative to the last Execute end) and
replays the recorded exit after that; each field of that entry state is
clamped where no comparison in the block can tell its values apart (the
table in :mod:`repro.pipeline.timing`'s docstring).  A wrong clamp shows
only when one block is entered twice under states it confuses, so these
tests time such streams against
:class:`~oracles.timing.ReferenceTimingPipeline`, which has no memo, and
compare every statistic, stall and look-ahead field:

* seeded looping programs (:mod:`looping_programs`) under every policy,
  write-buffer size 1, 2 and 4 and multiply latency 2 and 5, plus a
  chronogram window that ends inside a loop iteration; a larger seed
  budget runs under ``pytest -m differential``;
* hand-built traces that enter one block one cycle either side of a
  clamp: the Memory tracker, the pending write-buffer drains and LAEC's
  data hazard at the trace's first block;
* the block table: every kernel repeats blocks, the A2 streams repeat
  none, and a pc that retires two different instructions gets two ids.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import pytest

from repro.core.policies import EccPolicyKind, make_policy
from repro.functional.interpreter import FunctionalTrace, run_program
from repro.isa.instructions import Instruction, Mnemonic
from repro.memory.config import CacheConfig, MemoryHierarchyConfig
from repro.pipeline.config import PipelineConfig
from repro.pipeline.timing import TimingPipeline, block_table, memory_tape, static_facts
from repro.scenarios.spec import SimulationSpec
from repro.workloads import KERNEL_NAMES, build_kernel
from repro.workloads.synthetic import SyntheticStreamConfig, SyntheticWorkloadGenerator

from looping_programs import looping_program
from oracles.functional import reference_trace, run_reference
from oracles.hierarchy import MemoryHierarchy
from oracles.timing import ReferenceTimingPipeline

POLICIES = list(EccPolicyKind)

CONFIGS = [
    PipelineConfig(write_buffer_entries=entries, mul_latency=latency)
    for entries in (1, 2, 4)
    for latency in (2, 5)
]

TIER1_SEEDS = range(12)
#: ``-m differential``: seeds 12 to 411, ten to a test.
DIFFERENTIAL_CHUNKS = [range(first, first + 10) for first in range(12, 412, 10)]

DATA = 0x40000


def _time_both(trace, records, policy_kind, config, hierarchy=None):
    """Time one stream through both engines; every statistic must agree."""
    policy = make_policy(policy_kind)
    hierarchy = hierarchy or SimulationSpec(policy=policy).resolved_hierarchy()
    reference = ReferenceTimingPipeline(policy, MemoryHierarchy(hierarchy), config).run(records)
    fast = TimingPipeline(policy, hierarchy, config).run(trace)
    label = f"{trace.program_name}/{policy_kind.value}/{config}"
    assert fast.stats.as_dict() == reference.stats.as_dict(), label
    assert fast.stats.stalls.as_dict() == reference.stats.stalls.as_dict(), label
    assert fast.stats.lookahead == reference.stats.lookahead, label
    return reference, fast


# --------------------------------------------------------------------- #
# Generated looping programs                                            #
# --------------------------------------------------------------------- #
def _check_generated(seed: int) -> None:
    program = looping_program(seed)
    trace = run_program(program)
    records = run_reference(program)
    assert trace.halted
    for policy_kind in POLICIES:
        for config in CONFIGS:
            _time_both(trace, records, policy_kind, config)


@pytest.mark.parametrize("seed", TIER1_SEEDS)
def test_generated_loops_match_reference(seed):
    _check_generated(seed)


@pytest.mark.differential
@pytest.mark.parametrize("seeds", DIFFERENTIAL_CHUNKS, ids=lambda seeds: str(seeds.start))
def test_generated_loops_match_reference_larger_budget(seeds):
    for seed in seeds:
        _check_generated(seed)


@pytest.mark.parametrize("policy_kind", POLICIES, ids=lambda kind: kind.value)
def test_chronogram_window_ending_inside_a_loop_iteration(policy_kind):
    """Blocks that start inside the window run unmemoized; the window ends
    one instruction into a repeated block, and later visits of the same
    block hit the memo."""
    program = looping_program(0)
    trace = run_program(program)
    records = run_reference(program)
    hierarchy = SimulationSpec(policy=policy_kind).resolved_hierarchy()
    infos = static_facts(trace, 2, 18)
    table = block_table(trace, memory_tape(trace, hierarchy), infos)
    middle = len(table.starts) // 2
    start, end, bid = table.starts[middle], table.ends[middle], table.ids[middle]
    assert end - start >= 2 and bid >= 0
    assert bid in table.ids[middle + 1 :]
    config = PipelineConfig(chronogram_window=start + 1)
    reference, fast = _time_both(trace, records, policy_kind, config)
    assert len(fast.chronogram.entries) == start + 1
    for ref_entry, fast_entry in zip(reference.chronogram.entries, fast.chronogram.entries):
        assert fast_entry.index == ref_entry.index
        assert fast_entry.label == ref_entry.label
        assert fast_entry.occupancy == ref_entry.occupancy


# --------------------------------------------------------------------- #
# Hand-built traces at the clamps                                       #
# --------------------------------------------------------------------- #
Row = Tuple[Instruction, Optional[int]]


def _block(trace: FunctionalTrace, pc: int, rows: List[Row]) -> None:
    """Append one block at ``pc``: its last instruction is taken."""
    for k, (instruction, address) in enumerate(rows):
        trace.append(pc + 4 * k, instruction, address, k == len(rows) - 1)


def _alu(rd: int, rs1: int) -> Row:
    return Instruction(Mnemonic.ADD, rd=rd, rs1=rs1, imm=1), None


def _load(rd: int, rs1: int, address: int) -> Row:
    return Instruction(Mnemonic.LD, rd=rd, rs1=rs1), address


def _store(rs1: int, address: int) -> Row:
    return Instruction(Mnemonic.ST, rd=7, rs1=rs1), address


BRANCH: Row = (Instruction(Mnemonic.BA), None)


def _memory_tracker_trace() -> FunctionalTrace:
    """Under LAEC, two arms reach one block whose first instruction
    executes one cycle after the arm's branch (``b``).  Arm A ends with
    a load LAEC cannot anticipate (its address register comes from the
    instruction before): Memory ends at ``b+1``, Exception at ``b+3``.
    Arm B ends with a load that waits one cycle for a store miss's drain:
    Memory ends at ``b+2``, Exception at ``b+3`` too.  Only the Memory
    tracker tells the two entries apart.  Each arm follows a load miss
    whose consumer stalls Execute, so the front end runs ahead."""
    trace = FunctionalTrace(program_name="memory-tracker")
    for round_ in range(4):
        for arm in (0, 1):
            line = DATA + 0x1000 * (2 * round_ + arm)
            _block(trace, 0x1000, [_load(6, 3, line + 0x800), _alu(7, 6), BRANCH])
            if arm == 0:
                _block(trace, 0x1100, [_alu(16, 1), _load(13, 16, DATA + 8), BRANCH])
            else:
                drain_wait = [_store(3, line + 0x400)] + [_alu(8, 9)] * 29
                _block(trace, 0x1200, drain_wait + [_load(14, 1, DATA + 8), BRANCH])
            _block(trace, 0x1300, [_alu(4, 5), BRANCH])
    trace.halted = True
    return trace


def _pending_drains_trace() -> FunctionalTrace:
    """Two arms reach one block that starts with a store, each leaving
    two drains pending that end after ``b+2`` and the same last drain.
    Arm A (a store miss, then a hit queued behind it) leaves them one
    cycle apart, arm B (two misses) a miss latency apart.  The misses
    keep the Memory stage far behind Execute, so the block's store,
    which has to wait for a free entry with a two-entry buffer, finds
    arm B's first drain done and arm A's not.  The DL1 has two sets of
    two ways, so every store to a new line misses."""
    trace = FunctionalTrace(program_name="pending-drains")
    lines = [DATA + 64 * k for k in range(8)]  # all in set 0
    fresh = iter(lines * 6)
    join = [_store(1, DATA + 32), BRANCH]
    for _ in range(6):
        first = next(fresh)
        miss_then_hit = [_store(1, first), _store(1, first + 4)]
        _block(trace, 0x1000, miss_then_hit + [_alu(4, 5)] * 14 + [BRANCH])
        _block(trace, 0x1200, join)
        misses = [_store(1, next(fresh)), _store(1, next(fresh))]
        _block(trace, 0x1100, misses + [_alu(4, 5)] * 32 + [BRANCH])
        _block(trace, 0x1200, join)
    trace.halted = True
    return trace


PENDING_HIERARCHY = MemoryHierarchyConfig(
    l1d=CacheConfig(size_bytes=128, line_bytes=32, ways=2, name="dl1")
)


def _first_block_hazard_trace() -> FunctionalTrace:
    """The trace starts with a load through the link register, which a
    call re-enters later.  At the start every register reads as written
    by the instruction before (``ready == b == 0``), so the link register
    looks just as it does after the call; only LAEC's data-hazard bit
    tells the entries apart.  Single-line L1I and DL1 and a two-line L2
    make both visits miss the same way, and a three-cycle taken-branch
    penalty puts the front end as far ahead of Execute as at the start."""
    trace = FunctionalTrace(program_name="first-block-hazard")
    link_load = _load(5, 31, DATA)
    _block(trace, 0x1000, [link_load, BRANCH])
    call = (Instruction(Mnemonic.CALL, rd=31), None)
    _block(trace, 0x8000, [_load(6, 2, 2 * DATA), _alu(7, 6)] + [_alu(8, 9)] * 20 + [call])
    _block(trace, 0x1000, [link_load, BRANCH])
    trace.halted = True
    return trace


FIRST_BLOCK_HIERARCHY = MemoryHierarchyConfig(
    l1i=CacheConfig(size_bytes=32, line_bytes=32, ways=1, name="l1i"),
    l1d=CacheConfig(size_bytes=32, line_bytes=32, ways=1, name="dl1"),
    l2=CacheConfig(size_bytes=64, line_bytes=32, ways=2, name="l2"),
)


@pytest.mark.parametrize(
    "build,hierarchy,configs",
    [
        (_memory_tracker_trace, None, CONFIGS),
        (_pending_drains_trace, PENDING_HIERARCHY, CONFIGS),
        (
            _first_block_hazard_trace,
            FIRST_BLOCK_HIERARCHY,
            [PipelineConfig(taken_branch_penalty=penalty) for penalty in (1, 3)],
        ),
    ],
    ids=["memory-tracker", "pending-drains", "first-block-hazard"],
)
def test_clamp_boundaries_match_reference(build, hierarchy, configs):
    trace = build()
    records = reference_trace(trace)
    for policy_kind in POLICIES:
        for config in configs:
            _time_both(trace, records, policy_kind, config, hierarchy)


# --------------------------------------------------------------------- #
# The block table                                                       #
# --------------------------------------------------------------------- #
def test_kernels_repeat_blocks_and_a2_streams_do_not():
    """Every kernel has memoized blocks; Ablation A2's synthetic streams
    reuse no code, so every block is unmemoized and no shape is built."""
    hierarchy = SimulationSpec(policy=EccPolicyKind.LAEC).resolved_hierarchy()

    def table(trace):
        return block_table(trace, memory_tape(trace, hierarchy), static_facts(trace, 2, 18))

    for name in KERNEL_NAMES:
        kernel = table(run_program(build_kernel(name, scale=0.1)))
        assert kernel.shapes, name
        assert len(kernel.starts) == len(kernel.ends) == len(kernel.ids)
    for parameter, value in (
        ("load_fraction", 0.35),
        ("dependent_load_fraction", 0.9),
        ("address_from_previous_fraction", 0.8),
    ):
        config = SyntheticStreamConfig(instructions=8000, **{parameter: value})
        stream = table(SyntheticWorkloadGenerator(config).generate(name="a2"))
        assert stream.shapes == ()
        assert len(stream.ids) > 1 and set(stream.ids) == {-1}


def test_a_pc_retiring_two_instructions_gets_two_ids():
    """One pc retires an ``add`` in some visits and a ``smul`` in others
    (same length, same tape slice): the two blocks must not share an id,
    and timing equals the reference engine's."""
    add = Instruction(Mnemonic.ADD, rd=4, rs1=4, imm=1)
    mul = Instruction(Mnemonic.SMUL, rd=4, rs1=4, imm=3)
    trace = FunctionalTrace(program_name="two-instructions-one-pc")
    for visit in range(8):
        first = mul if visit % 3 == 0 else add
        _block(trace, 0x1000, [(first, None), _alu(5, 4), BRANCH])
    trace.halted = True
    hierarchy = SimulationSpec(policy=EccPolicyKind.LAEC).resolved_hierarchy()
    table = block_table(trace, memory_tape(trace, hierarchy), static_facts(trace, 2, 18))
    ids = list(table.ids)
    assert len(set(ids)) == 2
    assert ids[0] != ids[1] and ids[1] == ids[2] and ids[0] == ids[3]
    records = reference_trace(trace)
    for policy_kind in POLICIES:
        for config in CONFIGS:
            _time_both(trace, records, policy_kind, config)
