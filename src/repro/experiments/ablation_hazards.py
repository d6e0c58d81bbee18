"""Ablation A1: why does LAEC fail to anticipate a load?

Section IV-A of the paper notes that of the two conditions that can
block anticipation, data hazards dominate ("most of them are due to data
hazards": an instruction generates the address, the next instruction is
the load, and the following one or two consume the loaded value).  This
ablation measures the breakdown per benchmark using the look-ahead
unit's counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.analysis.reporting import Table
from repro.core.policies import EccPolicyKind
from repro.experiments.runner import ExperimentRunner, KernelRunSet


@dataclass(frozen=True)
class HazardBreakdownRow:
    """Per-benchmark anticipation statistics under LAEC."""

    benchmark: str
    loads: int
    take_rate: float
    blocked_data_hazard: int
    blocked_resource_hazard: int
    blocked_operands_late: int

    @property
    def blocked_total(self) -> int:
        return (
            self.blocked_data_hazard
            + self.blocked_resource_hazard
            + self.blocked_operands_late
        )


def run(
    *, runner: Optional[ExperimentRunner] = None, run_set: Optional[KernelRunSet] = None
) -> List[HazardBreakdownRow]:
    if run_set is None:
        runner = runner or ExperimentRunner()
        run_set = runner.run_all()
    rows: List[HazardBreakdownRow] = []
    for benchmark in run_set.benchmarks():
        stats = run_set.result(benchmark, EccPolicyKind.LAEC).stats.lookahead
        rows.append(
            HazardBreakdownRow(
                benchmark=benchmark,
                loads=stats.loads_seen,
                take_rate=stats.take_rate,
                blocked_data_hazard=stats.blocked_data_hazard,
                blocked_resource_hazard=stats.blocked_resource_hazard,
                blocked_operands_late=stats.blocked_operands_late,
            )
        )
    return rows


def data_hazard_dominates(rows: List[HazardBreakdownRow]) -> bool:
    """True when, summed over benchmarks, data hazards block more
    anticipations than resource hazards (the paper's observation)."""
    data = sum(r.blocked_data_hazard + r.blocked_operands_late for r in rows)
    resource = sum(r.blocked_resource_hazard for r in rows)
    return data >= resource


def render(rows: List[HazardBreakdownRow]) -> str:
    table = Table(
        title="Ablation A1: LAEC anticipation outcome per benchmark",
        columns=[
            "benchmark",
            "loads",
            "take rate %",
            "blocked: data hazard",
            "blocked: resource hazard",
            "blocked: operands late",
        ],
    )
    for row in rows:
        table.add_row(
            benchmark=row.benchmark,
            loads=row.loads,
            **{
                "take rate %": row.take_rate * 100,
                "blocked: data hazard": row.blocked_data_hazard,
                "blocked: resource hazard": row.blocked_resource_hazard,
                "blocked: operands late": row.blocked_operands_late,
            },
        )
    verdict = (
        "Data hazards dominate the blocked anticipations"
        if data_hazard_dominates(rows)
        else "Resource hazards dominate the blocked anticipations"
    )
    return table.render(float_format="{:.1f}") + f"\n{verdict} (paper: data hazards dominate)."
