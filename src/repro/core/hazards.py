"""Dependence helpers shared by the look-ahead unit and the statistics.

These predicates operate on the *dynamic* instruction records of the
reference interpreter (:mod:`repro.functional.reference`), which is
exactly the information the hardware would derive from the decoded
instructions in flight.  The reference timing engine uses them; the
fast engine folds the same rules into its scheduling loop.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional, Sequence

if TYPE_CHECKING:
    from repro.functional.reference import DynInstruction


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
