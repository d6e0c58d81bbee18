"""Tests for the declarative scenario layer (SimulationSpec + registry)."""

import pytest

from repro.core.policies import EccPolicyKind
from repro.memory.config import MemoryHierarchyConfig, WritePolicy
from repro.pipeline.config import PipelineConfig
from repro.scenarios import SimulationSpec
from repro.scenarios.interference import InterferenceScenario
from repro.scenarios.registry import (
    get_scenario,
    register_scenario,
    scenario_description,
    scenario_names,
)
from repro.simulation import simulate_kernel, simulate_spec
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
        # the original is untouched
        assert spec.scale == 1.0 and spec.kernel == KERNEL

    def test_interference_overrides_hierarchy_contention(self):
        scenario = InterferenceScenario("worst", 3, "worst")
        spec = SimulationSpec(kernel=KERNEL, interference=scenario)
        hierarchy = spec.resolved_hierarchy()
        assert hierarchy.bus_contenders == 3
        assert hierarchy.bus_contention_mode == "worst"

    def test_no_interference_inherits_hierarchy(self):
        contended = MemoryHierarchyConfig().with_contention(2, "average")
        spec = SimulationSpec(kernel=KERNEL, hierarchy=contended)
        assert spec.resolved_hierarchy() is contended

    def test_build_program_requires_kernel(self):
        with pytest.raises(ValueError):
            SimulationSpec().build_program()


class TestFunnel:
    """All entry paths produce identical results through the spec funnel."""

    def test_simulate_kernel_equals_simulate_spec(self):
        via_facade = simulate_kernel(KERNEL, policy="laec", scale=SCALE)
        via_spec = simulate_spec(
            SimulationSpec(kernel=KERNEL, scale=SCALE, policy="laec")
        )
        assert via_facade.cycles == via_spec.cycles
        assert via_facade.stats.as_dict() == via_spec.stats.as_dict()

    def test_program_run_attaches_spec(self):
        program = build_kernel(KERNEL, scale=SCALE)
        spec = SimulationSpec(policy="extra-stage")
        result = simulate_spec(spec, program=program)
        assert result.spec is spec
        assert result.program_name == program.name
        assert result.spec.resolved_policy().kind is EccPolicyKind.EXTRA_STAGE

    def test_program_run_times_the_spec_pipeline(self):
        program = build_kernel(KERNEL, scale=SCALE)
        spec = SimulationSpec(pipeline=PipelineConfig(taken_branch_penalty=3))
        result = simulate_spec(spec, program=program)
        assert result.spec.pipeline.taken_branch_penalty == 3
        default = simulate_spec(SimulationSpec(), program=program)
        assert result.cycles > default.cycles

    def test_contended_program_run_is_replayable(self):
        program = build_kernel(KERNEL, scale=SCALE)
        scenario = InterferenceScenario("worst", 3, "worst")
        result = simulate_spec(
            SimulationSpec(policy="laec", interference=scenario), program=program
        )
        assert result.spec.interference.mode == "worst"
        assert result.timing.bus_contention_cycles > 0
        # same spec, same cycles
        assert simulate_spec(result.spec, program=program).cycles == result.cycles

    def test_wt_policy_forces_write_through_dl1(self):
        spec = SimulationSpec(kernel=KERNEL, scale=SCALE, policy="wt-parity")
        result = simulate_spec(spec)
        hierarchy = result.spec.resolved_hierarchy()
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
