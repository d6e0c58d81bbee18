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

The task of interest runs on one core of the paper's 4-core NGMP; the
other cores are abstracted into this analytic contention charge, the
abstraction measurement-based WCET bounds for round-robin buses are
built from.
"""

from __future__ import annotations

from dataclasses import dataclass

#: "All other cores" of the 4-core NGMP: the contender count of the
#: registry's contended scenarios and of the WCET study.
OTHER_CORES = 3


@dataclass(frozen=True)
class InterferenceScenario:
    """One interference configuration applied to the task under analysis."""

    name: str
    contenders: int
    mode: str  # "none" | "average" | "worst"
