"""Tests for the analytic multicore model: the NGMP's other cores as
interference scenarios on the task's bus transactions."""

import pytest

from repro.core.policies import EccPolicyKind
from repro.memory.config import MemoryHierarchyConfig
from repro.scenarios.interference import InterferenceScenario
from repro.scenarios.registry import scenario_interference
from repro.scenarios.spec import SimulationSpec
from repro.simulation import simulate_spec
from repro.workloads import build_kernel

KERNEL, SCALE = "rspeed", 0.1


@pytest.fixture(scope="module")
def small_program():
    return build_kernel(KERNEL, scale=SCALE)


def wcet_bounds(program, policy, *, hierarchy=None):
    """Cycles under the registry's isolation, average and worst scenarios."""
    return {
        name: simulate_spec(
            SimulationSpec(
                policy=policy,
                hierarchy=hierarchy or MemoryHierarchyConfig(),
                interference=scenario_interference(name),
            ),
            program=program,
        ).cycles
        for name in ("isolation", "average", "worst")
    }


class TestSoC:
    def test_contention_slows_down_execution(self, small_program):
        isolated, contended = (
            simulate_spec(
                SimulationSpec(policy=EccPolicyKind.LAEC, interference=scenario),
                program=small_program,
            )
            for scenario in (None, InterferenceScenario("worst", 3, "worst"))
        )
        assert contended.cycles > isolated.cycles

    def test_wcet_estimate_ordering(self, small_program):
        bounds = wcet_bounds(small_program, EccPolicyKind.NO_ECC)
        assert bounds["isolation"] <= bounds["average"] <= bounds["worst"]

    def test_longer_bus_slot_raises_only_the_contended_bounds(self, small_program):
        default = wcet_bounds(small_program, EccPolicyKind.LAEC)
        long_slot = wcet_bounds(
            small_program,
            EccPolicyKind.LAEC,
            hierarchy=MemoryHierarchyConfig(bus_slot_cycles=12),
        )
        assert long_slot["worst"] > default["worst"]
        assert long_slot["isolation"] == default["isolation"]
