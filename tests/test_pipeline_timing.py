"""Tests for the cycle-accurate timing pipeline.

The load-use / ECC-stall behaviour encoded here is the paper's Figures
2-5 and 7: the number of Execute cycles of a dependent consumer under
each policy is the observable that distinguishes the schemes.
"""

import pytest

from repro.core.policies import EccPolicyKind
from repro.functional.interpreter import run_program
from repro.isa.assembler import assemble
from repro.pipeline.config import PipelineConfig
from repro.pipeline.stages import Stage
from repro.scenarios.spec import SimulationSpec
from repro.simulation import simulate_spec


def _time(program, policy, *, trace=None, **pipeline):
    """Time ``program`` under ``policy`` with the given pipeline settings."""
    spec = SimulationSpec(policy=policy, pipeline=PipelineConfig(**pipeline))
    return simulate_spec(spec, program=program, trace=trace)


def _simulate(source: str, policy, **kwargs):
    program = assemble(source, name="timing-test")
    return _time(program, policy, **kwargs)


#: Warm loop harness: the second iteration of the loop body is in steady
#: state (instruction and data lines warm), index of its first
#: instruction is 5 + body + 2.
def _loop(body: str, *, setup: str = "") -> str:
    return f"""
.data
values:
    .word 10, 20, 30, 40, 50, 60, 70, 80
.text
main:
    set values, r1
    set 8, r2
    set 3, r4
    {setup if setup else 'set 0, r6'}
    set 2, r20
loop:
{body}
    subcc r20, 1, r20
    bg loop
    halt
"""


def _consumer_execute_cycles(source: str, policy, consumer_offset: int, body_length: int):
    program = assemble(source)
    window = 5 + body_length + 2 + body_length
    result = _time(program, policy, chronogram_window=window)
    index = 5 + body_length + 2 + consumer_offset
    entry = next(e for e in result.chronogram.entries if e.index == index)
    return entry.cycles_in(Stage.EXECUTE)


DEPENDENT_BODY = """    ld [r1+r2], r3
    add r3, r4, r5"""

INDEPENDENT_BODY = """    ld [r1+r2], r3
    add r4, r4, r5"""

DISTANCE2_BODY = """    ld [r1+r2], r3
    add r4, r4, r6
    add r3, r4, r5"""

HAZARD_BODY = """    add r1, r6, r7
    ld [r7+r2], r3
    add r3, r4, r5"""


class TestLoadUseTiming:
    """Consumer Execute-stage occupancy per policy (paper Figures 2-5, 7)."""

    def test_no_ecc_distance1_one_stall(self):
        assert _consumer_execute_cycles(
            _loop(DEPENDENT_BODY), EccPolicyKind.NO_ECC, 1, 2
        ) == 2

    def test_extra_cycle_distance1_two_stalls(self):
        assert _consumer_execute_cycles(
            _loop(DEPENDENT_BODY), EccPolicyKind.EXTRA_CYCLE, 1, 2
        ) == 3

    def test_extra_stage_distance1_two_stalls(self):
        assert _consumer_execute_cycles(
            _loop(DEPENDENT_BODY), EccPolicyKind.EXTRA_STAGE, 1, 2
        ) == 3

    def test_laec_lookahead_distance1_one_stall(self):
        assert _consumer_execute_cycles(
            _loop(DEPENDENT_BODY), EccPolicyKind.LAEC, 1, 2
        ) == 2

    def test_extra_stage_independent_consumer_no_stall(self):
        assert _consumer_execute_cycles(
            _loop(INDEPENDENT_BODY), EccPolicyKind.EXTRA_STAGE, 1, 2
        ) == 1

    def test_extra_stage_distance2_one_stall(self):
        assert _consumer_execute_cycles(
            _loop(DISTANCE2_BODY), EccPolicyKind.EXTRA_STAGE, 2, 3
        ) == 2

    def test_no_ecc_distance2_no_stall(self):
        assert _consumer_execute_cycles(
            _loop(DISTANCE2_BODY), EccPolicyKind.NO_ECC, 2, 3
        ) == 1

    def test_laec_distance2_no_stall(self):
        assert _consumer_execute_cycles(
            _loop(DISTANCE2_BODY), EccPolicyKind.LAEC, 2, 3
        ) == 1

    def test_laec_data_hazard_falls_back_to_extra_stage(self):
        # The address register r7 is produced immediately before the load.
        laec = _consumer_execute_cycles(
            _loop(HAZARD_BODY, setup="set 0, r6"), EccPolicyKind.LAEC, 2, 3
        )
        extra_stage = _consumer_execute_cycles(
            _loop(HAZARD_BODY, setup="set 0, r6"), EccPolicyKind.EXTRA_STAGE, 2, 3
        )
        assert laec == extra_stage == 3


class TestOrderingAndTotals:
    def test_cycles_positive_and_cpi_consistent(self, tiny_program, tiny_trace):
        result = _time(tiny_program, "no-ecc", trace=tiny_trace)
        assert result.cycles > result.instructions
        assert result.cpi == pytest.approx(result.cycles / result.instructions)

    def test_policy_ordering_no_ecc_fastest(self, tiny_program, tiny_trace):
        results = {
            policy: _time(tiny_program, policy, trace=tiny_trace)
            for policy in ("no-ecc", "extra-cycle", "extra-stage", "laec")
        }
        assert results["no-ecc"].cycles <= results["laec"].cycles
        assert results["laec"].cycles <= results["extra-stage"].cycles
        # The 8th pipeline stage adds one drain cycle, so allow a tiny
        # constant offset when comparing Extra Stage against Extra Cycle.
        assert results["extra-stage"].cycles <= results["extra-cycle"].cycles + 2

    def test_identical_trace_reused(self, tiny_program, tiny_trace):
        a = _time(tiny_program, "laec", trace=tiny_trace)
        b = _time(tiny_program, "laec", trace=tiny_trace)
        assert a.cycles == b.cycles  # deterministic

    def test_stats_count_classes(self, tiny_program, tiny_trace):
        result = _time(tiny_program, "no-ecc", trace=tiny_trace)
        stats = result.stats
        assert stats.loads == 8 and stats.stores == 8
        assert stats.instructions == len(tiny_trace)
        assert stats.load_hits + stats.load_misses == stats.loads
        assert stats.taken_branches == 7

    def test_stall_breakdown_nonnegative(self, tiny_program, tiny_trace):
        result = _time(tiny_program, "extra-stage", trace=tiny_trace)
        breakdown = result.stats.stalls.as_dict()
        assert all(value >= 0 for value in breakdown.values())
        assert result.stats.stalls.total() == sum(breakdown.values())


class TestStructuralEffects:
    def test_extra_cycle_structural_penalty_without_dependence(self):
        """Even with no dependent consumer, Extra Cycle slows down code with
        many load hits because the Memory stage is busy two cycles."""
        source = _loop(
            """    ld [r1], r3
    add r4, r4, r5
    add r4, r4, r6
    ld [r1+4], r7
    add r4, r4, r8
    add r4, r4, r9"""
        )
        program = assemble(source)
        base = _time(program, "no-ecc").cycles
        extra_cycle = _time(program, "extra-cycle").cycles
        extra_stage = _time(program, "extra-stage").cycles
        assert extra_cycle > base
        # The pipelined ECC stage costs nothing beyond the one extra drain
        # cycle of the deeper pipeline.
        assert extra_stage - base <= 1

    def test_write_buffer_backpressure(self):
        # A burst of stores larger than the write buffer stalls the pipeline.
        burst = "\n".join(f"    st r4, [r1+{4 * i}]" for i in range(8))
        source = _loop(burst)
        small = _time(assemble(source), "no-ecc", write_buffer_entries=1)
        large = _time(assemble(source), "no-ecc", write_buffer_entries=8)
        assert small.cycles >= large.cycles

    def test_mul_latency_configurable(self, tiny_program):
        slow = _time(tiny_program, "no-ecc", mul_latency=8)
        fast = _time(tiny_program, "no-ecc", mul_latency=1)
        # The tiny loop has no multiplications, so latency must not matter.
        assert slow.cycles == fast.cycles

    def test_stage_lists(self):
        from repro.core.policies import ExtraStagePolicy, NoEccPolicy

        assert not NoEccPolicy().has_ecc_stage
        assert ExtraStagePolicy().has_ecc_stage

    def test_invalid_pipeline_config_rejected(self):
        with pytest.raises(ValueError):
            PipelineConfig(taken_branch_penalty=-1)
        with pytest.raises(ValueError):
            PipelineConfig(mul_latency=0)
        with pytest.raises(ValueError):
            PipelineConfig(write_buffer_entries=0)
