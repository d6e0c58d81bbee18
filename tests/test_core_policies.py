"""Tests for the ECC deployment policies and the look-ahead unit."""

import dataclasses

import pytest

from repro.core.hazards import (
    address_produced_by_predecessor,
    consumer_distance,
)
from repro.core.lookahead import LookaheadUnit
from repro.core.policies import (
    DataReadyStage,
    EccPolicyKind,
    ExtraCacheCyclePolicy,
    ExtraStagePolicy,
    LaecPolicy,
    NoEccPolicy,
    WriteThroughParityPolicy,
    make_policy,
)
from repro.experiments.runner import FIGURE8_POLICIES
from repro.functional.reference import run_reference
from repro.isa.assembler import assemble
from repro.memory.config import WritePolicy


class TestPolicyDefinitions:
    def test_pipeline_depths(self):
        # 7 stages, plus the ECC stage for the pipelined schemes.
        assert not NoEccPolicy().has_ecc_stage
        assert not ExtraCacheCyclePolicy().has_ecc_stage
        assert ExtraStagePolicy().has_ecc_stage
        assert LaecPolicy().has_ecc_stage

    def test_write_policies(self):
        assert NoEccPolicy().dl1_write_policy is WritePolicy.WRITE_BACK
        assert WriteThroughParityPolicy().dl1_write_policy is WritePolicy.WRITE_THROUGH
        assert LaecPolicy().dl1_write_policy is WritePolicy.WRITE_BACK

    def test_memory_stage_cycles(self):
        assert ExtraCacheCyclePolicy().memory_stage_cycles(is_load=True, hit=True) == 2
        assert ExtraCacheCyclePolicy().memory_stage_cycles(is_load=True, hit=False) == 1
        assert ExtraCacheCyclePolicy().memory_stage_cycles(is_load=False, hit=True) == 1
        assert LaecPolicy().memory_stage_cycles(is_load=True, hit=True) == 1

    def test_data_ready_stage(self):
        assert NoEccPolicy().load_hit_data_ready_stage(False) is DataReadyStage.MEMORY
        assert ExtraStagePolicy().load_hit_data_ready_stage(False) is DataReadyStage.ECC
        assert LaecPolicy().load_hit_data_ready_stage(True) is DataReadyStage.MEMORY
        assert LaecPolicy().load_hit_data_ready_stage(False) is DataReadyStage.ECC

    def test_correction_capability_matches_write_policy_requirement(self):
        # Only correction-capable schemes may keep dirty data in the DL1.
        for policy in map(make_policy, EccPolicyKind):
            if policy.dl1_write_policy is WritePolicy.WRITE_BACK and policy.detects_errors:
                assert policy.corrects_errors

    def test_make_policy_aliases(self):
        assert make_policy("laec").kind is EccPolicyKind.LAEC
        assert make_policy("extra_stage").kind is EccPolicyKind.EXTRA_STAGE
        assert make_policy("baseline").kind is EccPolicyKind.NO_ECC
        assert make_policy(EccPolicyKind.EXTRA_CYCLE).kind is EccPolicyKind.EXTRA_CYCLE
        laec = LaecPolicy()
        assert make_policy(laec) is laec

    def test_make_policy_unknown(self):
        with pytest.raises(ValueError):
            make_policy("secded-everywhere")

    def test_make_policy_rejects_a_modified_policy(self):
        # The store keys a spec by its policy kind, so a hand-built
        # variant would silently be served the built-in policy's rows.
        modified = dataclasses.replace(
            LaecPolicy(), dl1_code_name="parity", load_hit_memory_cycles=3
        )
        with pytest.raises(ValueError, match="laec"):
            make_policy(modified)
        for policy in map(make_policy, EccPolicyKind):
            assert make_policy(policy) is policy

    def test_figure8_policy_set(self):
        assert list(FIGURE8_POLICIES) == [
            EccPolicyKind.NO_ECC,
            EccPolicyKind.EXTRA_CYCLE,
            EccPolicyKind.EXTRA_STAGE,
            EccPolicyKind.LAEC,
        ]


def _trace(source: str):
    return run_reference(assemble(source)).instructions


class TestHazardPredicates:
    def test_consumer_distance_one_and_two(self):
        stream = _trace(
            """
            .data
            v: .word 1, 2
            .text
            main:
                set v, r1
                ld [r1], r2
                add r2, 1, r3
                ld [r1+4], r4
                nop
                add r4, 1, r5
                halt
            """
        )
        assert consumer_distance(stream, 1) == 1
        assert consumer_distance(stream, 3) == 2

    def test_no_consumer_within_window(self):
        stream = _trace(
            """
            .data
            v: .word 1
            .text
            main:
                set v, r1
                ld [r1], r2
                nop
                nop
                add r2, 1, r3
                halt
            """
        )
        assert consumer_distance(stream, 1) is None

    def test_overwrite_cancels_dependence(self):
        stream = _trace(
            """
            .data
            v: .word 1
            .text
            main:
                set v, r1
                ld [r1], r2
                set 9, r2
                add r2, 1, r3
                halt
            """
        )
        assert consumer_distance(stream, 1) is None

    def test_address_produced_by_predecessor(self):
        stream = _trace(
            """
            .data
            v: .word 1, 2
            .text
            main:
                set v, r4
                add r4, 4, r1
                ld [r1], r2
                halt
            """
        )
        load = stream[2]
        assert address_produced_by_predecessor(load, stream[1])
        assert not address_produced_by_predecessor(load, stream[0])
        assert not address_produced_by_predecessor(load, None)


class TestLookaheadUnit:
    def _load_and_predecessors(self):
        stream = _trace(
            """
            .data
            v: .word 1, 2, 3
            .text
            main:
                set v, r1
                add r1, 4, r1
                ld [r1], r2
                ld [r1+4], r3
                add r3, 1, r4
                halt
            """
        )
        return stream

    def test_data_hazard_blocks(self):
        stream = self._load_and_predecessors()
        unit = LookaheadUnit()
        decision = unit.evaluate(stream[2], stream[1])
        assert not decision.taken and decision.data_hazard

    def test_resource_hazard_blocks(self):
        stream = self._load_and_predecessors()
        unit = LookaheadUnit()
        decision = unit.evaluate(stream[3], stream[2], predecessor_lookahead=False)
        assert not decision.taken and decision.resource_hazard

    def test_anticipated_predecessor_load_is_no_resource_hazard(self):
        stream = self._load_and_predecessors()
        unit = LookaheadUnit()
        decision = unit.evaluate(stream[3], stream[2], predecessor_lookahead=True)
        assert decision.taken

    def test_late_operands_block(self):
        stream = self._load_and_predecessors()
        unit = LookaheadUnit()
        decision = unit.evaluate(
            stream[3], stream[2], predecessor_lookahead=True, address_operands_ready=False
        )
        assert not decision.taken and decision.operands_late

    def test_first_instruction_can_be_anticipated(self):
        stream = self._load_and_predecessors()
        unit = LookaheadUnit()
        assert unit.evaluate(stream[2], None).taken

    def test_statistics_accumulate(self):
        stream = self._load_and_predecessors()
        unit = LookaheadUnit()
        unit.evaluate(stream[2], stream[1])
        unit.evaluate(stream[3], stream[2], predecessor_lookahead=True)
        stats = unit.stats
        assert stats.loads_seen == 2
        assert stats.lookaheads_taken == 1
        assert stats.blocked_data_hazard == 1
        assert 0.0 < stats.take_rate < 1.0
        unit.reset()
        assert unit.stats.loads_seen == 0

    def test_non_load_rejected(self):
        stream = self._load_and_predecessors()
        unit = LookaheadUnit()
        with pytest.raises(ValueError):
            unit.evaluate(stream[0], None)
