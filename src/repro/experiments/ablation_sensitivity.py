"""Ablation A2: sensitivity of the Figure 8 result to workload statistics.

Using the synthetic stream generator, this ablation sweeps the three
Table II quantities one at a time (fraction of loads, fraction of
dependent loads, DL1 hit rate) plus the LAEC-specific "address produced
by the previous instruction" fraction, and reports the execution-time
increase of each scheme at every sweep point.  It shows *why* the paper's
averages come out where they do:

* Extra Cycle scales with loads x hit rate (every load hit pays);
* Extra Stage scales with loads x hit rate x dependent fraction;
* LAEC scales with the same product further multiplied by the fraction
  of loads whose address comes from the immediately preceding
  instruction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Sequence

from repro.analysis.reporting import Table
from repro.core.policies import EccPolicyKind
from repro.scenarios.spec import SimulationSpec
from repro.simulation import simulate_spec
from repro.workloads.synthetic import SyntheticStreamConfig, SyntheticWorkloadGenerator

SWEEP_POLICIES = (
    EccPolicyKind.EXTRA_CYCLE,
    EccPolicyKind.EXTRA_STAGE,
    EccPolicyKind.LAEC,
)


@dataclass(frozen=True)
class SweepPoint:
    """One synthetic configuration and the measured policy overheads."""

    parameter: str
    value: float
    increase: Dict[str, float]


def sweep(
    parameter: str,
    values: Sequence[float],
    *,
    instructions: int,
) -> List[SweepPoint]:
    """Sweep one synthetic-stream parameter and measure the overheads."""
    base = SyntheticStreamConfig(instructions=instructions)
    points: List[SweepPoint] = []
    for value in values:
        config = replace(base, **{parameter: value})
        trace = SyntheticWorkloadGenerator(config).generate(
            name=f"synthetic-{parameter}-{value}"
        )
        cycles = {
            policy: simulate_spec(SimulationSpec(policy=policy), trace=trace).cycles
            for policy in (EccPolicyKind.NO_ECC,) + SWEEP_POLICIES
        }
        baseline = cycles[EccPolicyKind.NO_ECC]
        increases = {
            policy.value: cycles[policy] / baseline - 1.0 for policy in SWEEP_POLICIES
        }
        points.append(SweepPoint(parameter=parameter, value=value, increase=increases))
    return points


def run(*, instructions: int = 8000) -> Dict[str, List[SweepPoint]]:
    """Run the three default sweeps."""
    return {
        "load_fraction": sweep(
            "load_fraction", (0.15, 0.25, 0.35), instructions=instructions
        ),
        "dependent_load_fraction": sweep(
            "dependent_load_fraction", (0.2, 0.6, 0.9), instructions=instructions
        ),
        "address_from_previous_fraction": sweep(
            "address_from_previous_fraction", (0.0, 0.3, 0.8), instructions=instructions
        ),
    }


def render(sweeps: Dict[str, List[SweepPoint]]) -> str:
    blocks: List[str] = []
    for parameter, points in sweeps.items():
        table = Table(
            title=f"Ablation A2: execution-time increase vs {parameter}",
            columns=["value", "extra-cycle %", "extra-stage %", "laec %"],
        )
        for point in points:
            table.add_row(
                value=point.value,
                **{
                    "extra-cycle %": point.increase[EccPolicyKind.EXTRA_CYCLE.value] * 100,
                    "extra-stage %": point.increase[EccPolicyKind.EXTRA_STAGE.value] * 100,
                    "laec %": point.increase[EccPolicyKind.LAEC.value] * 100,
                },
            )
        blocks.append(table.render(float_format="{:.2f}"))
        blocks.append("")
    return "\n".join(blocks)
