"""The LAEC look-ahead unit.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.core.hazards import address_produced_by_predecessor

if TYPE_CHECKING:
    from repro.functional.reference import DynInstruction


@dataclass(frozen=True)
class LookaheadDecision:
    """Outcome of evaluating one load for anticipation."""

    taken: bool
    data_hazard: bool = False
    resource_hazard: bool = False
    operands_late: bool = False


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

    def record(self, decision: LookaheadDecision) -> None:
        self.loads_seen += 1
        if decision.taken:
            self.lookaheads_taken += 1
            return
        if decision.data_hazard:
            self.blocked_data_hazard += 1
        if decision.resource_hazard:
            self.blocked_resource_hazard += 1
        if decision.operands_late:
            self.blocked_operands_late += 1

    def as_dict(self):
        return {
            "loads_seen": self.loads_seen,
            "lookaheads_taken": self.lookaheads_taken,
            "take_rate": self.take_rate,
            "blocked_data_hazard": self.blocked_data_hazard,
            "blocked_resource_hazard": self.blocked_resource_hazard,
            "blocked_operands_late": self.blocked_operands_late,
        }


class LookaheadUnit:
    """Evaluates the two LAEC anticipation conditions for each load."""

    def __init__(self) -> None:
        self.stats = LookaheadStatistics()

    def evaluate(
        self,
        load: DynInstruction,
        predecessor: Optional[DynInstruction],
        *,
        predecessor_lookahead: bool = False,
        address_operands_ready: bool = True,
    ) -> LookaheadDecision:
        """Decide whether ``load`` can be anticipated.

        ``predecessor`` is the dynamically preceding instruction (``None``
        for the first instruction of the stream).
        ``predecessor_lookahead`` tells whether that predecessor was a
        load that *was itself anticipated* — in that case it uses the DL1
        port in its own Execute stage, one cycle before ours, so there is
        no port conflict (this is the "non-predicted load" wording of the
        paper).
        ``address_operands_ready`` lets the timing model veto anticipation
        when an *older* producer (distance >= 2, e.g. a previous load
        delayed by its own ECC check) has not delivered the address
        register early enough for the anticipated address add.
        """
        if not load.is_load:
            raise ValueError("look-ahead is only evaluated for load instructions")
        data_hazard = address_produced_by_predecessor(load, predecessor)
        resource_hazard = bool(
            predecessor is not None
            and predecessor.is_load
            and not predecessor_lookahead
        )
        operands_late = not address_operands_ready
        taken = not (data_hazard or resource_hazard or operands_late)
        decision = LookaheadDecision(
            taken=taken,
            data_hazard=data_hazard,
            resource_hazard=resource_hazard,
            operands_late=operands_late,
        )
        self.stats.record(decision)
        return decision

    def reset(self) -> None:
        self.stats = LookaheadStatistics()
