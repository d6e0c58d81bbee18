"""Inter-core interference descriptions (part of the scenario model).

A scenario describes how many other cores are generating bus traffic and
how pessimistically their interference is accounted:

* ``isolation`` — the task runs alone (no contention); this is the
  average-performance configuration.
* ``average`` — contenders are active and each bus transaction of the
  task waits, on average, half a round of the round-robin arbiter.
* ``worst`` — every transaction of the task waits a full round (one slot
  per contender), the bound a measurement-based WCET estimate must
  assume for this arbiter [Dasari 2011, paper reference [14]].

This lives in the scenarios package (rather than :mod:`repro.soc`) so
the declarative :class:`~repro.scenarios.spec.SimulationSpec` can carry
an interference description without depending on the SoC layer.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class InterferenceScenario:
    """One interference configuration applied to the task under analysis."""

    name: str
    contenders: int
    mode: str  # "none" | "average" | "worst"

    def describe(self) -> str:
        if self.mode == "none" or self.contenders == 0:
            return f"{self.name}: task in isolation"
        return (
            f"{self.name}: {self.contenders} contending core(s), "
            f"{self.mode}-case round-robin interference"
        )
