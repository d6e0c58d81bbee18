"""Tests for the NGMP SoC model under interference scenarios."""

import pytest

from repro.core.policies import EccPolicyKind
from repro.memory.config import MemoryHierarchyConfig
from repro.scenarios.interference import InterferenceScenario
from repro.soc import NgmpSoC, TaskPlacement
from repro.soc.ngmp import NgmpConfig
from repro.workloads import build_kernel


@pytest.fixture(scope="module")
def small_program():
    return build_kernel("rspeed", scale=0.1)


class TestSoC:
    def test_describe(self):
        soc = NgmpSoC()
        text = soc.describe()
        assert "4 in-order cores" in text and "L2" in text

    def test_invalid_core_index(self, small_program):
        soc = NgmpSoC()
        with pytest.raises(ValueError):
            soc.run_task(TaskPlacement(program=small_program, core_index=7))

    def test_contention_slows_down_execution(self, small_program):
        soc = NgmpSoC()
        placement = TaskPlacement(program=small_program, policy=EccPolicyKind.LAEC)
        isolated = soc.run_task(placement)
        contended = soc.run_task(
            placement, scenario=InterferenceScenario("worst", 3, "worst")
        )
        assert contended.cycles > isolated.cycles

    def test_wcet_estimate_ordering(self, small_program):
        soc = NgmpSoC(NgmpConfig())
        placement = TaskPlacement(program=small_program, policy=EccPolicyKind.NO_ECC)
        bounds = soc.wcet_estimate(placement)
        assert bounds["isolation"] <= bounds["average"] <= bounds["worst"]

    def test_contenders_clamped_to_core_count(self, small_program):
        soc = NgmpSoC(NgmpConfig(cores=2))
        placement = TaskPlacement(program=small_program)
        result = soc.run_task(
            placement, scenario=InterferenceScenario("worst", 10, "worst")
        )
        assert result.cycles > 0

    def test_longer_bus_slot_raises_only_the_contended_bounds(self, small_program):
        placement = TaskPlacement(program=small_program, policy=EccPolicyKind.LAEC)
        default = NgmpSoC().wcet_estimate(placement, contenders=3)
        long_slot = NgmpSoC(
            NgmpConfig(hierarchy=MemoryHierarchyConfig(bus_slot_cycles=12))
        ).wcet_estimate(placement, contenders=3)
        assert long_slot["worst"] > default["worst"]
        assert long_slot["isolation"] == default["isolation"]
