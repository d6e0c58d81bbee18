"""Cross-policy comparison metrics (the arithmetic behind Figure 8)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping

from repro.simulation import SimulationResult


@dataclass
class PolicyComparison:
    """Execution-time comparison of several policies against a baseline."""

    baseline_policy: str
    #: benchmark -> policy -> cycles
    cycles: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def add(self, benchmark: str, policy: str, cycle_count: int) -> None:
        self.cycles.setdefault(benchmark, {})[policy] = cycle_count

    def benchmarks(self) -> List[str]:
        return sorted(self.cycles)

    def policies(self) -> List[str]:
        names: List[str] = []
        for per_policy in self.cycles.values():
            for name in per_policy:
                if name not in names:
                    names.append(name)
        return names

    def increase(self, benchmark: str, policy: str) -> float:
        """Relative execution-time increase of ``policy`` over the baseline."""
        per_policy = self.cycles[benchmark]
        baseline = per_policy[self.baseline_policy]
        return per_policy[policy] / baseline - 1.0

    def average_increase(self, policy: str) -> float:
        """Arithmetic mean of the per-benchmark increases (as in the paper)."""
        benchmarks = self.benchmarks()
        if not benchmarks:
            return 0.0
        return sum(self.increase(b, policy) for b in benchmarks) / len(benchmarks)

    def improvement_over(self, policy: str, other: str) -> float:
        """Average reduction in overhead of ``policy`` relative to ``other``.

        The paper summarises LAEC as a "6% / 13% decrease in performance
        degradation" versus Extra Stage / Extra Cycle; this is the
        corresponding quantity: mean over benchmarks of
        ``increase(other) - increase(policy)``.
        """
        benchmarks = self.benchmarks()
        if not benchmarks:
            return 0.0
        return sum(
            self.increase(b, other) - self.increase(b, policy) for b in benchmarks
        ) / len(benchmarks)

    def as_rows(self) -> List[Dict[str, float]]:
        """Rows suitable for table rendering: one per benchmark plus average."""
        policies = [p for p in self.policies() if p != self.baseline_policy]
        rows: List[Dict[str, float]] = []
        for benchmark in self.benchmarks():
            row: Dict[str, float] = {"benchmark": benchmark}
            for policy in policies:
                row[policy] = self.increase(benchmark, policy)
            rows.append(row)
        average_row: Dict[str, float] = {"benchmark": "average"}
        for policy in policies:
            average_row[policy] = self.average_increase(policy)
        rows.append(average_row)
        return rows


def compare_policies(
    results: Mapping[str, Mapping[str, SimulationResult]],
    *,
    baseline: str = "no-ecc",
) -> PolicyComparison:
    """Build a :class:`PolicyComparison` from nested simulation results.

    ``results`` maps benchmark name -> policy name -> simulation result.
    """
    comparison = PolicyComparison(baseline_policy=baseline)
    for benchmark, per_policy in results.items():
        for policy, result in per_policy.items():
            comparison.add(benchmark, policy, result.cycles)
    return comparison
