"""Energy/power experiment (paper §IV-A, last paragraph).

Two claims are checked quantitatively:

* the dynamic-power overhead of LAEC's extra hardware (two register-file
  read ports + one 32-bit adder per anticipated load) is below 1 %;
* leakage energy grows in proportion to execution time, so the leakage
  penalty of each scheme mirrors its Figure 8 slowdown (≈17 % for Extra
  Cycle, ≈10 % for Extra Stage, <4 % for LAEC).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.energy import EnergyModel, estimate_energy
from repro.analysis.reporting import Table
from repro.core.policies import EccPolicyKind
from repro.experiments.runner import ExperimentRunner, KernelRunSet


@dataclass
class EnergyStudyRow:
    """Average relative deltas of one policy versus the no-ECC baseline."""

    policy: str
    dynamic_increase: float
    leakage_increase: float
    execution_time_increase: float


def run(
    *,
    runner: Optional[ExperimentRunner] = None,
    run_set: Optional[KernelRunSet] = None,
    model: Optional[EnergyModel] = None,
) -> List[EnergyStudyRow]:
    """Estimate per-policy energy deltas averaged over all kernels."""
    if run_set is None:
        runner = runner or ExperimentRunner()
        run_set = runner.run_all()
    model = model or EnergyModel()
    policies = [
        EccPolicyKind.EXTRA_CYCLE,
        EccPolicyKind.EXTRA_STAGE,
        EccPolicyKind.LAEC,
    ]
    accumulators: Dict[str, List[float]] = {
        policy.value: [0.0, 0.0, 0.0] for policy in policies
    }
    benchmarks = run_set.benchmarks()
    for benchmark in benchmarks:
        baseline_result = run_set.baseline(benchmark)
        baseline_energy = estimate_energy(baseline_result, model=model)
        for policy in policies:
            result = run_set.result(benchmark, policy)
            energy = estimate_energy(result, model=model)
            deltas = energy.relative_to(baseline_energy)
            accumulator = accumulators[policy.value]
            accumulator[0] += deltas["dynamic"]
            accumulator[1] += deltas["leakage"]
            accumulator[2] += result.execution_time_increase_over(baseline_result)
    rows: List[EnergyStudyRow] = []
    count = len(benchmarks) or 1
    for policy in policies:
        accumulator = accumulators[policy.value]
        rows.append(
            EnergyStudyRow(
                policy=policy.value,
                dynamic_increase=accumulator[0] / count,
                leakage_increase=accumulator[1] / count,
                execution_time_increase=accumulator[2] / count,
            )
        )
    return rows


def render(rows: List[EnergyStudyRow]) -> str:
    table = Table(
        title="Energy study (§IV-A): average increase over the no-ECC baseline",
        columns=[
            "policy",
            "dynamic energy %",
            "leakage energy %",
            "execution time %",
        ],
    )
    for row in rows:
        table.add_row(
            policy=row.policy,
            **{
                "dynamic energy %": row.dynamic_increase * 100,
                "leakage energy %": row.leakage_increase * 100,
                "execution time %": row.execution_time_increase * 100,
            },
        )
    note = (
        "Leakage energy tracks execution time (same percentages), and the LAEC\n"
        "dynamic overhead stays small, as argued in the paper."
    )
    return table.render(float_format="{:.2f}") + "\n" + note
