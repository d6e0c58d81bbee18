"""The declarative simulation specification.

A :class:`SimulationSpec` is the single, frozen description of "one
timing run": which workload (a named kernel or a caller-supplied
program), at which scale, under which ECC policy, on which pipeline and
memory-hierarchy configuration, with which inter-core interference, and
pinned to which core.  Every entry path of the library —
:func:`repro.simulation.simulate_kernel`,
:func:`repro.simulation.simulate_program`,
:class:`repro.experiments.runner.ExperimentRunner` and
:meth:`repro.soc.ngmp.NgmpSoC.run_task` — builds a spec and funnels it
through :func:`repro.simulation.simulate_spec`, so scenario handling,
caching and sharding logic all operate on one value type.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Union

from repro.core.policies import EccPolicy, EccPolicyKind, make_policy
from repro.memory.config import MemoryHierarchyConfig
from repro.pipeline.config import CoreConfig, PipelineConfig
from repro.scenarios.interference import InterferenceScenario

PolicyLike = Union[str, EccPolicyKind, EccPolicy]

#: Cache arrays a :class:`FaultSpec` can target.
FAULT_TARGETS = ("dl1", "l2")

#: Kernel scale of the committed artefacts under ``benchmarks/output/``
#: (``python -m repro --run``'s default): 0.4 keeps the full 16-kernel x
#: 4-policy matrix fast while preserving the loop-dominated steady-state
#: behaviour, so overhead percentages match the full-scale runs.
DEFAULT_CAMPAIGN_SCALE = 0.4


@dataclass(frozen=True)
class FaultSpec:
    """One architectural soft error: a single bit flip in a cache array.

    The fault is *armed* before the run starts and lands right before the
    ``at_access``-th DL1 data access of the run (a deterministic proxy
    for the injection cycle: the DL1 access ordinal is a bijective
    function of simulated time for a fixed spec).  ``word_address`` is
    the word-aligned byte address whose stored codeword is hit and
    ``bit`` the position within that codeword (data bits low, check bits
    above — see :mod:`repro.ecc.codec`).  If the word is not resident in
    the targeted array when the fault lands, the upset hits a bit
    holding no live data and the run is architecturally masked.
    """

    target: str = "dl1"
    word_address: int = 0
    bit: int = 0
    at_access: int = 1

    def __post_init__(self) -> None:
        if self.target not in FAULT_TARGETS:
            raise ValueError(
                f"unknown fault target {self.target!r}; expected one of {FAULT_TARGETS}"
            )
        if self.word_address % 4:
            raise ValueError("fault word_address must be word (4-byte) aligned")
        if self.bit < 0:
            raise ValueError("fault bit position must be non-negative")
        if self.at_access < 1:
            raise ValueError("at_access is a 1-based access ordinal")

    def describe(self) -> str:
        return (
            f"flip bit {self.bit} of {self.target} word {self.word_address:#x} "
            f"before access #{self.at_access}"
        )


@dataclass(frozen=True)
class SimulationSpec:
    """Everything needed to reproduce one timing run.

    ``kernel`` names a workload from the registry; leave it ``None``
    when the program object is supplied directly to
    :func:`repro.simulation.simulate_spec`.  ``interference`` of ``None``
    means "whatever contention is already encoded in ``hierarchy``"
    (usually none); an explicit :class:`InterferenceScenario` overrides
    the hierarchy's bus-contention fields.
    """

    kernel: Optional[str] = None
    scale: float = 1.0
    policy: PolicyLike = EccPolicyKind.NO_ECC
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    hierarchy: MemoryHierarchyConfig = field(default_factory=MemoryHierarchyConfig)
    interference: Optional[InterferenceScenario] = None
    core_index: int = 0
    chronogram_window: int = 0
    max_instructions: int = 5_000_000
    #: Optional armed soft error (see :class:`FaultSpec`).  When set,
    #: :func:`repro.simulation.simulate_spec` routes the run through the
    #: architectural fault-injection replay in :mod:`repro.campaign`.
    fault: Optional[FaultSpec] = None

    # -- derived views -------------------------------------------------- #
    def resolved_policy(self) -> EccPolicy:
        return make_policy(self.policy)

    def effective_hierarchy(self) -> MemoryHierarchyConfig:
        """Hierarchy config with the spec's interference applied."""
        if self.interference is None:
            return self.hierarchy
        scenario = self.interference
        return self.hierarchy.with_contention(scenario.contenders, scenario.mode)

    def core_config(self) -> CoreConfig:
        """The per-core configuration this spec describes."""
        pipeline = self.pipeline
        if self.chronogram_window:
            pipeline = pipeline.with_chronogram(self.chronogram_window)
        return CoreConfig(
            pipeline=pipeline,
            hierarchy=self.effective_hierarchy(),
            policy=self.policy,
            name=f"core{self.core_index}",
        )

    def build_program(self):
        """Assemble the named kernel (requires ``kernel`` to be set)."""
        if self.kernel is None:
            raise ValueError("this spec names no kernel; pass a program explicitly")
        # Imported lazily: the workload suite is optional and pulls in the
        # assembler, which must not be a hard dependency of the spec type.
        from repro.workloads import build_kernel

        return build_kernel(self.kernel, scale=self.scale)

    # -- functional-style updates --------------------------------------- #
    def with_policy(self, policy: PolicyLike) -> "SimulationSpec":
        return replace(self, policy=policy)

    def with_scale(self, scale: float) -> "SimulationSpec":
        return replace(self, scale=scale)

    def with_kernel(self, kernel: str) -> "SimulationSpec":
        return replace(self, kernel=kernel)

    def with_chronogram(self, window: int) -> "SimulationSpec":
        return replace(self, chronogram_window=window)

    def with_core(self, core_index: int) -> "SimulationSpec":
        return replace(self, core_index=core_index)

    def with_fault(self, fault: Optional[FaultSpec]) -> "SimulationSpec":
        return replace(self, fault=fault)

    def describe(self) -> str:
        workload = self.kernel or "<program>"
        scenario = (
            self.interference.describe()
            if self.interference is not None
            else "inherited contention"
        )
        text = (
            f"{workload} (scale {self.scale:g}) under "
            f"{self.resolved_policy().kind.value} on core{self.core_index}; "
            f"{scenario}"
        )
        if self.fault is not None:
            text += f"; {self.fault.describe()}"
        return text
