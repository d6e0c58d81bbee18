"""Measurement-based WCET analysis helpers.

Critical real-time systems need execution-time *bounds*, not averages.
The paper's motivation (§I, §II-A) is that a write-through DL1 makes
those bounds much worse on a multicore because every store competes for
the shared bus.  This module wraps the SoC interference scenarios into
explicit bounds with the safety margins measurement-based timing
analysis typically applies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.policies import EccPolicy, EccPolicyKind
from repro.functional.interpreter import FunctionalTrace, run_program
from repro.isa.program import Program
from repro.scenarios.interference import InterferenceScenario
from repro.soc.ngmp import NgmpConfig, NgmpSoC, TaskPlacement


@dataclass(frozen=True)
class WcetBound:
    """An execution-time bound for one task/policy configuration."""

    policy: str
    observed_isolation_cycles: int
    observed_contention_cycles: int
    wcet_estimate_cycles: int

    @property
    def contention_inflation(self) -> float:
        """WCET estimate relative to the isolated observation."""
        if self.observed_isolation_cycles == 0:
            return 0.0
        return self.wcet_estimate_cycles / self.observed_isolation_cycles


class WcetAnalysis:
    """Derives WCET bounds for a program under different DL1 policies."""

    def __init__(
        self,
        *,
        soc: NgmpSoC | None = None,
        safety_margin: float = 1.2,
        contenders: int = 3,
    ) -> None:
        self.soc = soc or NgmpSoC(NgmpConfig())
        self.safety_margin = safety_margin
        self.contenders = contenders

    def _bound(self, program: Program, policy, trace: FunctionalTrace) -> WcetBound:
        placement = TaskPlacement(program=program, policy=policy)
        isolation, contention = (
            self.soc.run_task(placement, scenario=scenario, trace=trace).cycles
            for scenario in (
                InterferenceScenario("isolation", 0, "none"),
                InterferenceScenario("worst", self.contenders, "worst"),
            )
        )
        estimate = int(round(contention * self.safety_margin))
        policy_name = (
            policy.kind.value if isinstance(policy, EccPolicy) else str(policy)
        )
        return WcetBound(
            policy=policy_name,
            observed_isolation_cycles=isolation,
            observed_contention_cycles=contention,
            wcet_estimate_cycles=estimate,
        )

    def write_policy_study(self, program: Program) -> Dict[str, WcetBound]:
        """WT+parity versus WB (LAEC and ideal) bounds for one program.

        Reproduces the shape of the paper's motivating claim: the WCET of
        the write-through configuration inflates far more under bus
        contention than the write-back ones because every store becomes a
        bus transaction.  The program is interpreted once; every
        configuration times that one functional trace.
        """
        trace = run_program(program)
        return {
            "wt-parity": self._bound(program, EccPolicyKind.WT_PARITY, trace),
            "wb-laec": self._bound(program, EccPolicyKind.LAEC, trace),
            "wb-no-ecc": self._bound(program, EccPolicyKind.NO_ECC, trace),
        }
