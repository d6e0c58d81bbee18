"""Write-through versus write-back WCET study (paper §I / §II-A).

The paper motivates write-back DL1 caches — and hence the need for DL1
error *correction* — by the observation that a write-through DL1 pushes
every store onto the shared bus, which inflates WCET estimates on a
multicore (up to 6x for bus contention alone according to reference [9]).
This experiment reproduces the shape of that argument on the analytic
bus-contention model: for a store-intensive kernel it reports
execution-time bounds in isolation and under worst-case bus contention
for

* a write-through DL1 with parity (the LEON3/LEON4 configuration),
* a write-back DL1 protected by LAEC, and
* the ideal unprotected write-back DL1.

Each kernel is interpreted once; every configuration and scenario times
that one functional trace through :func:`repro.simulation.simulate_spec`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from repro.analysis.reporting import Table
from repro.core.policies import EccPolicyKind
from repro.functional.interpreter import run_program
from repro.scenarios.interference import OTHER_CORES
from repro.scenarios.registry import scenario_interference
from repro.scenarios.spec import SimulationSpec
from repro.simulation import simulate_spec
from repro.workloads.registry import build_kernel

#: The margin measurement-based timing analysis typically applies on top
#: of the worst observed (contended) execution time.
SAFETY_MARGIN = 1.2

#: The DL1 configurations compared, by row label.
CONFIGURATIONS = (
    ("wt-parity", EccPolicyKind.WT_PARITY),
    ("wb-laec", EccPolicyKind.LAEC),
    ("wb-no-ecc", EccPolicyKind.NO_ECC),
)


@dataclass(frozen=True)
class WcetBound:
    """An execution-time bound for one task/configuration."""

    observed_isolation_cycles: int
    observed_contention_cycles: int
    wcet_estimate_cycles: int

    @property
    def contention_inflation(self) -> float:
        """WCET estimate relative to the isolated observation."""
        if self.observed_isolation_cycles == 0:
            return 0.0
        return self.wcet_estimate_cycles / self.observed_isolation_cycles


@dataclass
class WtVsWbResult:
    """Bounds per kernel and per DL1 configuration."""

    bounds: Dict[str, Dict[str, WcetBound]]

    def wcet_ratio(self, kernel: str, policy: str, baseline: str = "wb-no-ecc") -> float:
        """WCET of ``policy`` relative to ``baseline`` for one kernel."""
        per_policy = self.bounds[kernel]
        return (
            per_policy[policy].wcet_estimate_cycles
            / per_policy[baseline].wcet_estimate_cycles
        )

    def average_wt_inflation(self) -> float:
        """Mean WT-vs-WB(LAEC) WCET ratio across the studied kernels."""
        kernels = list(self.bounds)
        if not kernels:
            return 0.0
        return sum(
            self.wcet_ratio(kernel, "wt-parity", "wb-laec") for kernel in kernels
        ) / len(kernels)


def run(
    *,
    kernels: Sequence[str] = ("iirflt", "puwmod", "a2time"),
    scale: float = 0.3,
) -> WtVsWbResult:
    """Compute WCET bounds for the selected kernels and configurations.

    The default kernels are store-intensive (outputs written per sample).
    The WCET estimate is the observation under worst-case contention
    from all other cores times :data:`SAFETY_MARGIN`.
    """
    scenarios = (scenario_interference("isolation"), scenario_interference("worst"))
    bounds: Dict[str, Dict[str, WcetBound]] = {}
    for name in kernels:
        trace = run_program(build_kernel(name, scale=scale))
        bounds[name] = {}
        for label, policy in CONFIGURATIONS:
            isolation, contention = (
                simulate_spec(
                    SimulationSpec(
                        kernel=name, scale=scale, policy=policy, interference=scenario
                    ),
                    trace=trace,
                ).cycles
                for scenario in scenarios
            )
            bounds[name][label] = WcetBound(
                observed_isolation_cycles=isolation,
                observed_contention_cycles=contention,
                wcet_estimate_cycles=int(round(contention * SAFETY_MARGIN)),
            )
    return WtVsWbResult(bounds=bounds)


def render(result: WtVsWbResult) -> str:
    table = Table(
        title=(
            "WT+parity vs WB DL1: observed cycles and WCET estimates "
            f"({OTHER_CORES} contending cores, worst-case round-robin bus)"
        ),
        columns=[
            "kernel",
            "configuration",
            "isolation cycles",
            "contention cycles",
            "WCET estimate",
            "WCET vs WB-LAEC",
        ],
    )
    for kernel, per_policy in result.bounds.items():
        for policy, bound in per_policy.items():
            table.add_row(
                kernel=kernel,
                configuration=policy,
                **{
                    "isolation cycles": bound.observed_isolation_cycles,
                    "contention cycles": bound.observed_contention_cycles,
                    "WCET estimate": bound.wcet_estimate_cycles,
                    "WCET vs WB-LAEC": result.wcet_ratio(kernel, policy, "wb-laec"),
                },
            )
    note = (
        f"Average WT/WB(LAEC) WCET inflation: {result.average_wt_inflation():.2f}x "
        "(the paper's motivation cites up to 6x for bus contention alone)."
    )
    return table.render(float_format="{:.2f}") + "\n" + note
