"""The LAEC look-ahead conditions and their statistics.

Section III-A of the paper: a DL1 load can be anticipated by one cycle —
address add in the Register-Access stage, DL1 access in Execute, ECC
check in Memory — when **both** of the following hold with respect to the
immediately preceding instruction:

1. *No resource hazard*: the preceding instruction is not itself a
   non-anticipated load, because that load would occupy the single DL1
   read port (its Memory stage) in the same cycle the anticipated load
   wants to access the DL1 (its Execute stage).
2. *No data hazard*: the preceding instruction does not produce any of
   the registers used to form the load's effective address, because the
   anticipated address add needs those registers one cycle earlier than
   a normal execution would.

The unit never speculates: when either hazard is present the load simply
executes like the Extra Stage scheme, so no flush/recovery hardware is
needed — which is the whole point for simple safety-critical cores.

:class:`repro.pipeline.timing.TimingPipeline` evaluates both conditions
in its scheduling loop and counts each load's outcome in
:class:`LookaheadStatistics`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class LookaheadStatistics:
    """Counters describing how often anticipation succeeded and why not."""

    loads_seen: int = 0
    lookaheads_taken: int = 0
    blocked_data_hazard: int = 0
    blocked_resource_hazard: int = 0
    blocked_operands_late: int = 0

    @property
    def blocked_total(self) -> int:
        return self.loads_seen - self.lookaheads_taken

    @property
    def take_rate(self) -> float:
        return self.lookaheads_taken / self.loads_seen if self.loads_seen else 0.0

    def as_dict(self):
        return {
            "loads_seen": self.loads_seen,
            "lookaheads_taken": self.lookaheads_taken,
            "take_rate": self.take_rate,
            "blocked_data_hazard": self.blocked_data_hazard,
            "blocked_resource_hazard": self.blocked_resource_hazard,
            "blocked_operands_late": self.blocked_operands_late,
        }
