"""Tests for the NGMP SoC model and interference scenarios."""

import pytest

from repro.core.policies import EccPolicyKind
from repro.memory.config import MemoryHierarchyConfig
from repro.soc import InterferenceScenario, NgmpConfig, NgmpSoC, TaskPlacement, contention_modes
from repro.workloads import build_kernel


@pytest.fixture(scope="module")
def small_program():
    return build_kernel("rspeed", scale=0.1)


class TestScenarios:
    def test_default_modes(self):
        scenarios = contention_modes(contenders=3)
        assert [s.mode for s in scenarios] == ["none", "average", "worst"]
        assert all("core" in s.describe() or "isolation" in s.describe() for s in scenarios)


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

    def test_write_policy_comparison_shape(self, small_program):
        soc = NgmpSoC()
        comparison = soc.compare_write_policies(small_program, contenders=3)
        assert set(comparison) == {"wt-parity", "wb-laec", "wb-no-ecc"}
        # Under worst-case contention the WT configuration suffers the most
        # relative slowdown (every store is a bus transaction).
        def inflation(label):
            return comparison[label]["worst"] / comparison[label]["isolation"]

        assert inflation("wt-parity") > inflation("wb-laec")

    def test_write_policy_comparison_interprets_once(self, small_program, monkeypatch):
        import repro.simulation
        import repro.soc.ngmp
        from repro.functional import run_program

        calls = []

        def counting_run_program(program, **kwargs):
            calls.append(program.name)
            return run_program(program, **kwargs)

        monkeypatch.setattr(repro.simulation, "run_program", counting_run_program)
        monkeypatch.setattr(repro.soc.ngmp, "run_program", counting_run_program)
        soc = NgmpSoC()
        comparison = soc.compare_write_policies(small_program, contenders=3)
        assert calls == [small_program.name]
        for label, policy in (
            ("wt-parity", EccPolicyKind.WT_PARITY),
            ("wb-laec", EccPolicyKind.LAEC),
            ("wb-no-ecc", EccPolicyKind.NO_ECC),
        ):
            placement = TaskPlacement(program=small_program, policy=policy)
            assert comparison[label] == soc.wcet_estimate(placement, contenders=3)

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
