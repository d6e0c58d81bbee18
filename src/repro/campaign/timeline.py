"""Metadata-only cache timeline walks for the batched replay backend.

The key invariant the batched path exploits: the DL1's tag / dirty /
replacement state depends only on the *address stream*, never on data
values — and the address stream of a faulty run equals the golden one
right up to its divergence point.  So one metadata-only walk of the
golden memory-op stream (no data, no ECC, no register file) yields, for
every word a batch of faults targets, the exact sequence of events that
decides the fault's fate: when the word's line is filled (reads the
backing store), evicted clean (corruption discarded) or dirty
(corruption written back), when the word itself is loaded (corruption
becomes architecturally visible) or stored (corruption overwritten),
and what the end-of-run flush does to it.

A word's timeline does not depend on which other words a walk
watches, so :func:`golden_timelines` walks once per (golden run,
geometry) over every word of every line the golden run touches and
caches the result on the :class:`~repro.functional.interpreter.GoldenRun`:
every batch of every policy sharing that run and geometry reads it.
A word on a line the run never touches has no events at all.

The same invariant carries the timeline-delta walk
(:func:`repro.campaign.triage._walk_divergent`): as long as that walk
proves the faulty PC stream equal to the golden one (or equal modulo a
pure-NOP reconvergence), these per-word event timelines remain valid
*past* the first corrupted-value load, so the faulted word's
cache/backing masks can keep evolving analytically instead of streaming
the point through the snapshot resume (:mod:`repro.campaign.replay`).

The per-set metadata model is :class:`~repro.memory.cache.LruSet`, the
set of the timing caches, which the faulty resume path uses too, so
the timing model, the timelines and the resume stay in lock-step by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from repro.functional.interpreter import GoldenRun
from repro.memory.cache import LruSet

# Event kinds, ordered as appended while processing one op:
# evictions precede fills precede the data access itself (mirroring
# Dl1ContentModel._access -> load/store ordering).
EV_EVICT_CLEAN = 0
EV_EVICT_DIRTY = 1
EV_FILL = 2  #: payload a = 1 when the allocating access is a WB store
EV_LINE_STORE = 3  #: store to a *sibling* word of the same line
EV_LOAD = 4  #: payload a = size, b = bit shift
EV_STORE = 5  #: payload a = size, b = bit shift
EV_END_FLUSH = 6  #: resident + dirty at end of run: flushed (writeback)
EV_END_DISCARD = 7  #: resident + clean at end of run: discarded

#: One event: (op ordinal, kind, a, b).  Ordinals are 1-based; the
#: end-of-run events use ordinal ``total_ops + 1``.
Event = Tuple[int, int, int, int]

#: Structural event kinds: cache-metadata traffic (fills / evictions /
#: sibling-word stores) as opposed to data accesses of the word itself.
#: The timeline-delta walk consumes these between interpreted ops.
STRUCTURAL_EVENTS = frozenset(
    {EV_EVICT_CLEAN, EV_EVICT_DIRTY, EV_FILL, EV_LINE_STORE}
)


def subword_mask(size: int, shift: int) -> int:
    """32-bit mask of the bytes a ``size``-byte access at bit ``shift``
    touches inside its word (the whole word for ``size == 4``)."""
    return (((1 << (8 * size)) - 1) << shift) & 0xFFFFFFFF


@dataclass(frozen=True)
class CacheGeometry:
    """The DL1 shape + write policy one timeline walk models."""

    line_bits: int
    set_bits: int
    ways: int
    write_back: bool
    write_allocate: bool = True

    @property
    def set_mask(self) -> int:
        return (1 << self.set_bits) - 1

    @property
    def line_mask(self) -> int:
        return ~((1 << self.line_bits) - 1)


def build_timelines(
    golden: GoldenRun,
    geometry: CacheGeometry,
    words: Iterable[int],
) -> Dict[int, List[Event]]:
    """Per-word event timelines over the golden op stream.

    ``words`` are the word addresses the batch's faults target; the
    returned dict maps each to its ordered event list.
    """
    line_bits = geometry.line_bits
    set_mask = geometry.set_mask
    line_mask = geometry.line_mask
    write_back = geometry.write_back

    timelines: Dict[int, List[Event]] = {wa: [] for wa in words}
    lines: Dict[int, List[int]] = {}
    for wa in timelines:
        lines.setdefault(wa & line_mask, []).append(wa)

    sets: Dict[int, LruSet] = {}
    op_wa = golden.op_wa
    op_store = golden.op_store
    op_size = golden.op_size
    op_shift = golden.op_shift
    lines_get = lines.get

    for position in range(len(op_wa)):
        wa = op_wa[position]
        is_store = op_store[position]
        line_address = wa & line_mask
        set_index = (wa >> line_bits) & set_mask
        model = sets.get(set_index)
        if model is None:
            model = LruSet(
                geometry.ways,
                write_allocate=geometry.write_allocate,
                write_back=write_back,
            )
            sets[set_index] = model
        evicted_line, evicted_dirty, filled = model.access(line_address, is_store)
        ordinal = position + 1
        if evicted_line is not None:
            watched = lines_get(evicted_line)
            if watched:
                kind = EV_EVICT_DIRTY if evicted_dirty else EV_EVICT_CLEAN
                for watched_wa in watched:
                    timelines[watched_wa].append((ordinal, kind, 0, 0))
        if filled:
            watched = lines_get(line_address)
            if watched:
                dirty0 = 1 if (is_store and write_back) else 0
                for watched_wa in watched:
                    timelines[watched_wa].append((ordinal, EV_FILL, dirty0, 0))
        if is_store:
            watched = lines_get(line_address)
            if watched:
                for watched_wa in watched:
                    if watched_wa == wa:
                        timelines[wa].append(
                            (ordinal, EV_STORE, op_size[position], op_shift[position])
                        )
                    elif write_back:
                        timelines[watched_wa].append((ordinal, EV_LINE_STORE, 0, 0))
        elif wa in timelines:
            timelines[wa].append(
                (ordinal, EV_LOAD, op_size[position], op_shift[position])
            )

    # End-of-run flush: every line still resident either writes back
    # (dirty) or is discarded (clean).
    end_ordinal = len(op_wa) + 1
    for line_address, watched in lines.items():
        set_index = (line_address >> line_bits) & set_mask
        model = sets.get(set_index)
        if model is None or not model.resident(line_address):
            continue
        kind = EV_END_FLUSH if model.line_dirty(line_address) else EV_END_DISCARD
        for watched_wa in watched:
            timelines[watched_wa].append((end_ordinal, kind, 0, 0))
    return timelines


def golden_timelines(
    golden: GoldenRun, geometry: CacheGeometry
) -> Dict[int, List[Event]]:
    """Timelines of every word on every line the golden run touches.

    Built by one :func:`build_timelines` walk on first use and cached
    on ``golden``; a word missing from the result has no events.
    """
    timelines = golden.timelines.get(geometry)
    if timelines is None:
        line_bytes = 1 << geometry.line_bits
        lines = dict.fromkeys(wa & geometry.line_mask for wa in golden.op_wa)
        timelines = build_timelines(
            golden,
            geometry,
            (wa for line in lines for wa in range(line, line + line_bytes, 4)),
        )
        golden.timelines[geometry] = timelines
    return timelines
