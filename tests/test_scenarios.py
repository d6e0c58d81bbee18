"""Tests for the declarative scenario layer (SimulationSpec + registry)."""

import pytest

from repro.core.policies import EccPolicyKind
from repro.memory.config import MemoryHierarchyConfig, WritePolicy
from repro.pipeline.config import CoreConfig, PipelineConfig
from repro.scenarios import SimulationSpec
from repro.scenarios.interference import InterferenceScenario
from repro.scenarios.registry import (
    get_scenario,
    register_scenario,
    scenario_description,
    scenario_names,
)
from repro.simulation import simulate_kernel, simulate_program, simulate_spec
from repro.soc import NgmpSoC, TaskPlacement
from repro.workloads import build_kernel

KERNEL = "rspeed"
SCALE = 0.1


class TestSimulationSpec:
    def test_is_frozen(self):
        spec = SimulationSpec(kernel=KERNEL)
        with pytest.raises(Exception):
            spec.kernel = "matrix"

    def test_with_helpers_return_new_specs(self):
        spec = SimulationSpec(kernel=KERNEL)
        assert spec.with_policy("laec").resolved_policy().kind is EccPolicyKind.LAEC
        assert spec.with_scale(0.5).scale == 0.5
        assert spec.with_kernel("matrix").kernel == "matrix"
        assert spec.with_core(2).core_index == 2
        assert spec.with_chronogram(8).chronogram_window == 8
        # the original is untouched
        assert spec.scale == 1.0 and spec.kernel == KERNEL

    def test_interference_overrides_hierarchy_contention(self):
        scenario = InterferenceScenario("worst", 3, "worst")
        spec = SimulationSpec(kernel=KERNEL, interference=scenario)
        hierarchy = spec.effective_hierarchy()
        assert hierarchy.bus_contenders == 3
        assert hierarchy.bus_contention_mode == "worst"

    def test_no_interference_inherits_hierarchy(self):
        contended = MemoryHierarchyConfig().with_contention(2, "average")
        spec = SimulationSpec(kernel=KERNEL, hierarchy=contended)
        assert spec.effective_hierarchy() is contended

    def test_core_config_carries_chronogram_window(self):
        spec = SimulationSpec(kernel=KERNEL, chronogram_window=16)
        assert spec.core_config().pipeline.chronogram_window == 16

    def test_build_program_requires_kernel(self):
        with pytest.raises(ValueError):
            SimulationSpec().build_program()

    def test_describe_mentions_workload_and_policy(self):
        spec = SimulationSpec(kernel=KERNEL, policy="laec")
        text = spec.describe()
        assert KERNEL in text and "laec" in text


class TestFunnel:
    """All entry paths produce identical results through the spec funnel."""

    def test_simulate_kernel_equals_simulate_spec(self):
        via_facade = simulate_kernel(KERNEL, policy="laec", scale=SCALE)
        via_spec = simulate_spec(
            SimulationSpec(kernel=KERNEL, scale=SCALE, policy="laec")
        )
        assert via_facade.cycles == via_spec.cycles
        assert via_facade.stats.as_dict() == via_spec.stats.as_dict()

    def test_simulate_program_attaches_spec(self):
        program = build_kernel(KERNEL, scale=SCALE)
        result = simulate_program(program, policy="extra-stage")
        assert result.spec is not None
        assert result.spec.resolved_policy().kind is EccPolicyKind.EXTRA_STAGE

    def test_simulate_program_config_maps_into_spec(self):
        program = build_kernel(KERNEL, scale=SCALE)
        config = CoreConfig(pipeline=PipelineConfig(write_buffer_entries=2))
        result = simulate_program(program, policy="no-ecc", config=config)
        assert result.spec.pipeline.write_buffer_entries == 2

    def test_soc_run_task_funnels_through_spec(self):
        soc = NgmpSoC()
        program = build_kernel(KERNEL, scale=SCALE)
        placement = TaskPlacement(program=program, policy="laec", core_index=1)
        scenario = InterferenceScenario("worst", 3, "worst")
        result = soc.run_task(placement, scenario=scenario)
        assert result.spec is not None
        assert result.spec.core_index == 1
        assert result.spec.interference.mode == "worst"
        # and the spec is replayable: same spec, same cycles
        assert simulate_spec(result.spec, program=program).cycles == result.cycles

    def test_soc_clamps_contenders_into_spec(self):
        from repro.soc.ngmp import NgmpConfig

        soc = NgmpSoC(NgmpConfig(cores=2))
        program = build_kernel(KERNEL, scale=SCALE)
        spec = soc.build_spec(
            TaskPlacement(program=program),
            scenario=InterferenceScenario("worst", 10, "worst"),
        )
        assert spec.interference.contenders == 1

    def test_wt_policy_forces_write_through_dl1(self):
        spec = SimulationSpec(kernel=KERNEL, scale=SCALE, policy="wt-parity")
        result = simulate_spec(spec)
        hierarchy = result.spec.core_config().resolved_hierarchy_config()
        assert hierarchy.l1d.write_policy is WritePolicy.WRITE_THROUGH
        assert list(result.trace.memory_tapes) == [hierarchy]


class TestRegistry:
    def test_builtin_scenarios_cover_policies_and_wcet_matrix(self):
        names = scenario_names()
        for kind in EccPolicyKind:
            assert kind.value in names
        for label in ("laec", "wt-parity"):
            for suffix in ("isolation", "average", "worst"):
                assert f"{label}-{suffix}" in names

    def test_get_scenario_with_overrides(self):
        spec = get_scenario("laec-worst", kernel=KERNEL, scale=SCALE)
        assert spec.kernel == KERNEL
        assert spec.interference.mode == "worst"
        assert simulate_spec(spec).cycles > 0

    def test_worst_scenario_slower_than_isolation(self):
        worst = simulate_spec(get_scenario("laec-worst", kernel=KERNEL, scale=SCALE))
        isolation = simulate_spec(
            get_scenario("laec-isolation", kernel=KERNEL, scale=SCALE)
        )
        assert worst.cycles > isolation.cycles

    def test_policy_agnostic_interference_scenarios_registered(self):
        names = scenario_names()
        for name in ("isolation", "average", "worst"):
            assert name in names
        assert get_scenario("isolation").interference is None
        assert get_scenario("average").interference.mode == "average"
        assert get_scenario("worst").interference.mode == "worst"
        assert get_scenario("worst").interference.contenders > 0

    def test_scenario_interference_resolves_the_contention_component(self):
        from repro.scenarios.registry import scenario_interference

        # The campaign grid consumes only the interference component;
        # "isolation" maps to None so sweep specs hash identically to
        # the historical single-dimension campaign specs.
        assert scenario_interference("isolation") is None
        worst = scenario_interference("laec-worst")
        assert worst is not None and worst.mode == "worst"
        with pytest.raises(KeyError):
            scenario_interference("no-such-scenario")

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError):
            get_scenario("no-such-scenario")

    def test_double_registration_rejected_then_replaceable(self):
        name = "test-scenario-registration"
        register_scenario(
            name, lambda: SimulationSpec(), description="one", replace=True
        )
        with pytest.raises(ValueError):
            register_scenario(name, lambda: SimulationSpec())
        register_scenario(
            name, lambda: SimulationSpec(policy="laec"), description="two", replace=True
        )
        assert scenario_description(name) == "two"
        assert get_scenario(name).resolved_policy().kind is EccPolicyKind.LAEC
