"""The NGMP-like SoC: four LEON4-class cores around a shared bus and L2."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Union

from repro.core.policies import EccPolicy, EccPolicyKind
from repro.isa.program import Program
from repro.memory.config import MemoryHierarchyConfig
from repro.pipeline.config import CoreConfig, PipelineConfig
from repro.scenarios.interference import InterferenceScenario
from repro.scenarios.spec import SimulationSpec
from repro.simulation import SimulationResult, simulate_spec


@dataclass(frozen=True)
class NgmpConfig:
    """Topology and shared-resource parameters of the SoC."""

    cores: int = 4
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    hierarchy: MemoryHierarchyConfig = field(default_factory=MemoryHierarchyConfig)

    def core_config(
        self,
        policy: Union[str, EccPolicyKind, EccPolicy],
        *,
        contenders: int = 0,
        mode: str = "none",
        name: str = "core0",
    ) -> CoreConfig:
        hierarchy = self.hierarchy.with_contention(contenders, mode)
        return CoreConfig(
            pipeline=self.pipeline, hierarchy=hierarchy, policy=policy, name=name
        )


@dataclass
class TaskPlacement:
    """A program pinned to one core of the SoC under a given ECC policy."""

    program: Program
    core_index: int = 0
    policy: Union[str, EccPolicyKind, EccPolicy] = EccPolicyKind.LAEC


class NgmpSoC:
    """A 4-core NGMP-like system.

    Mirrors the paper's methodology: one task of interest runs on one
    core and the other cores are represented by the analytic bus
    contention model (the abstraction measurement-based WCET bounds for
    round-robin buses are constructed from).  :meth:`run_task` returns
    the full single-core :class:`~repro.simulation.SimulationResult`
    with the configured interference applied to every bus transaction;
    :meth:`wcet_estimate` runs it under the isolation, average and
    worst scenarios.
    """

    def __init__(self, config: Optional[NgmpConfig] = None) -> None:
        self.config = config or NgmpConfig()

    # ------------------------------------------------------------------ #
    def build_spec(
        self,
        placement: TaskPlacement,
        *,
        scenario: Optional[InterferenceScenario] = None,
    ) -> SimulationSpec:
        """Translate a placement + scenario into a declarative spec.

        Contender counts are clamped to the SoC topology (at most
        ``cores - 1`` other masters can interfere).
        """
        scenario = scenario or InterferenceScenario("isolation", 0, "none")
        if not 0 <= placement.core_index < self.config.cores:
            raise ValueError(
                f"core index {placement.core_index} outside 0..{self.config.cores - 1}"
            )
        contenders = min(scenario.contenders, self.config.cores - 1)
        if contenders != scenario.contenders:
            scenario = InterferenceScenario(scenario.name, contenders, scenario.mode)
        return SimulationSpec(
            policy=placement.policy,
            pipeline=self.config.pipeline,
            hierarchy=self.config.hierarchy,
            interference=scenario,
            core_index=placement.core_index,
        )

    def run_task(
        self,
        placement: TaskPlacement,
        *,
        scenario: Optional[InterferenceScenario] = None,
        trace=None,
    ) -> SimulationResult:
        """Run one task under the given (analytic) interference scenario."""
        spec = self.build_spec(placement, scenario=scenario)
        return simulate_spec(spec, program=placement.program, trace=trace)

    # ------------------------------------------------------------------ #
    def wcet_estimate(
        self,
        placement: TaskPlacement,
        *,
        contenders: Optional[int] = None,
        trace=None,
    ) -> Dict[str, int]:
        """Measurement-based execution-time bounds for one task.

        Returns observed cycles in isolation, under average contention and
        under worst-case contention (the latter is the WCET estimate a
        certification argument would use for this arbiter).  ``trace``
        optionally reuses one functional trace for all three runs (the
        architectural stream is interference-independent).
        """
        if contenders is None:
            contenders = self.config.cores - 1
        results: Dict[str, int] = {}
        for scenario in (
            InterferenceScenario("isolation", 0, "none"),
            InterferenceScenario("average", contenders, "average"),
            InterferenceScenario("worst", contenders, "worst"),
        ):
            results[scenario.name] = self.run_task(
                placement, scenario=scenario, trace=trace
            ).cycles
        return results

    def describe(self) -> str:
        hierarchy = self.config.hierarchy
        return (
            f"NGMP-like SoC: {self.config.cores} in-order cores, "
            f"private {hierarchy.l1d.size_bytes // 1024} KiB DL1 / "
            f"{hierarchy.l1i.size_bytes // 1024} KiB IL1, shared "
            f"{hierarchy.l2.size_bytes // 1024} KiB L2 behind a round-robin bus"
        )
