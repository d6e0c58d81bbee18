"""Execution statistics collected by the timing pipeline.

Beyond total cycles/CPI, the counters are chosen to support the paper's
evaluation directly:

* Table II needs, per benchmark, the fraction of instructions that are
  loads, the DL1 hit rate of loads, and the fraction of loads whose value
  is consumed within the next two instructions.
* The discussion of Figure 8 needs the breakdown of stall causes and, for
  LAEC, how often anticipation was blocked by a data versus a resource
  hazard.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.core.lookahead import LookaheadStatistics


@dataclass
class StallBreakdown:
    """Cycles lost to each cause, measured against an ideal 1-IPC flow."""

    operand_wait: int = 0
    load_use_wait: int = 0
    ecc_wait: int = 0
    memory_structural: int = 0
    dl1_miss: int = 0
    write_buffer_full: int = 0
    write_buffer_drain: int = 0
    branch_redirect: int = 0
    icache_miss: int = 0

    def total(self) -> int:
        return (
            self.operand_wait
            + self.load_use_wait
            + self.ecc_wait
            + self.memory_structural
            + self.dl1_miss
            + self.write_buffer_full
            + self.write_buffer_drain
            + self.branch_redirect
            + self.icache_miss
        )

    def as_dict(self) -> Dict[str, int]:
        return {
            "operand_wait": self.operand_wait,
            "load_use_wait": self.load_use_wait,
            "ecc_wait": self.ecc_wait,
            "memory_structural": self.memory_structural,
            "dl1_miss": self.dl1_miss,
            "write_buffer_full": self.write_buffer_full,
            "write_buffer_drain": self.write_buffer_drain,
            "branch_redirect": self.branch_redirect,
            "icache_miss": self.icache_miss,
        }


@dataclass
class PipelineStatistics:
    """Aggregate counters for one timing run."""

    instructions: int = 0
    cycles: int = 0
    loads: int = 0
    stores: int = 0
    branches: int = 0
    taken_branches: int = 0
    load_hits: int = 0
    load_misses: int = 0
    dependent_loads: int = 0
    dependent_load_distance_1: int = 0
    dependent_load_distance_2: int = 0
    stalls: StallBreakdown = field(default_factory=StallBreakdown)
    lookahead: LookaheadStatistics = field(default_factory=LookaheadStatistics)

    # ------------------------------------------------------------------ #
    # derived metrics                                                    #
    # ------------------------------------------------------------------ #
    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0

    @property
    def load_fraction(self) -> float:
        """Loads as a fraction of all retired instructions (Table II row 3)."""
        return self.loads / self.instructions if self.instructions else 0.0

    @property
    def load_hit_rate(self) -> float:
        """DL1 hit rate of loads (Table II row 1)."""
        return self.load_hits / self.loads if self.loads else 0.0

    @property
    def dependent_load_fraction(self) -> float:
        """Loads with a consumer at distance 1-2 (Table II row 2)."""
        return self.dependent_loads / self.loads if self.loads else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "instructions": self.instructions,
            "cycles": self.cycles,
            "cpi": self.cpi,
            "loads": self.loads,
            "stores": self.stores,
            "branches": self.branches,
            "taken_branches": self.taken_branches,
            "load_hits": self.load_hits,
            "load_misses": self.load_misses,
            "load_fraction": self.load_fraction,
            "load_hit_rate": self.load_hit_rate,
            "dependent_load_fraction": self.dependent_load_fraction,
            "stall_cycles": self.stalls.total(),
            **{f"stall_{k}": v for k, v in self.stalls.as_dict().items()},
            **{f"lookahead_{k}": v for k, v in self.lookahead.as_dict().items()},
        }

    def table2_row(self) -> Dict[str, float]:
        """The three percentages reported per benchmark in Table II."""
        return {
            "pct_hit_loads": 100.0 * self.load_hit_rate,
            "pct_dependent_loads": 100.0 * self.dependent_load_fraction,
            "pct_loads": 100.0 * self.load_fraction,
        }
