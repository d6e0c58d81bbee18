"""The pieces of the seed pipeline only the reference timing engine uses.

The reference timing engine (:mod:`oracles.timing`) evaluates each load
with a :class:`LookaheadUnit` (the two anticipation conditions of
:mod:`repro.core.lookahead`, one :class:`LookaheadDecision` per load),
asks the policy's timing contract (:func:`memory_stage_cycles`,
:func:`load_hit_data_ready_stage`) how a DL1 load hit occupies the
Memory stage and when its value is ready, tracks each register's bypass
ready time in a :class:`_RegisterStatus` and counts load waits in the
write buffer's statistics (:func:`record_load_wait`).  The dependence
helpers operate on the *dynamic* instruction records of the reference
interpreter (:mod:`oracles.functional`), which is exactly the
information the hardware would derive from the decoded instructions in
flight.  The fast engine (:class:`repro.pipeline.timing.TimingPipeline`)
folds the same rules into its scheduling loop.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from repro.core.lookahead import LookaheadStatistics
from repro.core.policies import EccPolicy

from oracles.write_buffer import WriteBuffer

if TYPE_CHECKING:
    from oracles.functional import DynInstruction


def produces_any_register(
    producer: DynInstruction, registers: Iterable[int]
) -> bool:
    """True if ``producer`` writes any of ``registers``."""
    destination = producer.destination_register
    if destination is None:
        return False
    return destination in set(registers)


def consumer_distance(
    stream: Sequence[DynInstruction],
    load_position: int,
    *,
    max_distance: int = 2,
) -> Optional[int]:
    """Distance (1-based) to the first consumer of a load's destination.

    Scans at most ``max_distance`` dynamically following instructions, as
    the paper does for its "% of dep. loads" metric (Table II): only
    consumers at distance 1 or 2 can be stalled by the ECC stage, because
    from distance 3 onward the checked value is available anyway.
    Returns ``None`` when no consumer exists within the window or the
    load writes no register.
    """
    load = stream[load_position]
    destination = load.destination_register
    if destination is None:
        return None
    for distance in range(1, max_distance + 1):
        position = load_position + distance
        if position >= len(stream):
            return None
        follower = stream[position]
        if destination in follower.source_registers:
            return distance
        if follower.destination_register == destination:
            # The register is overwritten before being read: later readers
            # observe the new producer, not our load.
            return None
    return None


def address_produced_by_predecessor(
    load: DynInstruction, predecessor: Optional[DynInstruction]
) -> bool:
    """True if the immediate predecessor generates one of the load's
    address registers — the *data hazard* that blocks LAEC anticipation."""
    if predecessor is None:
        return False
    return produces_any_register(predecessor, load.address_registers)


@dataclass(frozen=True)
class LookaheadDecision:
    """Outcome of evaluating one load for anticipation."""

    taken: bool
    data_hazard: bool = False
    resource_hazard: bool = False
    operands_late: bool = False


def record(stats: LookaheadStatistics, decision: LookaheadDecision) -> None:
    """Count one decision in ``stats``."""
    stats.loads_seen += 1
    if decision.taken:
        stats.lookaheads_taken += 1
        return
    if decision.data_hazard:
        stats.blocked_data_hazard += 1
    if decision.resource_hazard:
        stats.blocked_resource_hazard += 1
    if decision.operands_late:
        stats.blocked_operands_late += 1


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
        record(self.stats, decision)
        return decision

    def reset(self) -> None:
        self.stats = LookaheadStatistics()


class DataReadyStage(enum.Enum):
    """Pipeline stage at whose end a load hit's checked data is available."""

    MEMORY = "M"
    ECC = "ECC"


def load_hit_data_ready_stage(policy: EccPolicy, lookahead_taken: bool) -> DataReadyStage:
    """Stage at whose end a dependent instruction may consume the data."""
    if not policy.has_ecc_stage:
        return DataReadyStage.MEMORY
    if policy.supports_lookahead and lookahead_taken:
        # Anticipated loads finish their ECC check in the Memory stage.
        return DataReadyStage.MEMORY
    return DataReadyStage.ECC


def memory_stage_cycles(policy: EccPolicy, *, is_load: bool, hit: bool) -> int:
    """Cycles the Memory stage is occupied by this access."""
    if is_load and hit:
        return policy.load_hit_memory_cycles
    return 1


def record_load_wait(write_buffer: WriteBuffer, waited_cycles: int) -> None:
    if waited_cycles > 0:
        write_buffer.stats.load_drain_stall_cycles += waited_cycles


@dataclass
class _RegisterStatus:
    """Book-keeping for bypass/ready-time tracking of one register.

    The fast engine tracks the three fields in parallel lists; this class
    remains the per-register record used by the reference engine.
    """

    ready: int = 0
    produced_by_load: bool = False
    via_ecc_stage: bool = False
