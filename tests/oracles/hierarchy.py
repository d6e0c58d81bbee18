"""The seed memory hierarchy object graph, kept as the test oracle.

:class:`MemoryHierarchy` owns the private L1 instruction and data
caches of one core, plus a :class:`Bus`, a :class:`SharedL2Cache` and
:class:`MainMemory` behind them (the other cores' share of the bus is
the analytic :class:`~repro.memory.bus.ContentionModel` charge).  All
methods return *latencies in cycles*.  No accessor takes a cycle: the
outcomes depend only on the sequence of accesses.

Production replays a trace through the three caches in one flat loop,
:func:`repro.pipeline.timing.memory_tape`.  :func:`hierarchy_tape` is
that function's seed body, replaying the same trace through this object
graph; the tests compare the two tapes field by field, and
:class:`oracles.timing.ReferenceTimingPipeline` drives a live
:class:`MemoryHierarchy`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.functional.interpreter import FunctionalTrace
from repro.memory.bus import ContentionModel
from repro.memory.cache import SetAssociativeCache
from repro.memory.config import CacheConfig, MemoryHierarchyConfig, WritePolicy
from repro.pipeline.timing import MemoryTape


@dataclass
class MainMemoryStatistics:
    accesses: int = 0
    row_hits: int = 0


class MainMemory:
    """Fixed-latency memory with an optional open-row discount."""

    def __init__(
        self,
        *,
        access_latency: int = 20,
        row_bytes: int = 1024,
        row_hit_discount: int = 6,
    ) -> None:
        self.access_latency = access_latency
        self.row_bytes = row_bytes
        self.row_hit_discount = row_hit_discount
        self._open_row: int | None = None
        self.stats = MainMemoryStatistics()

    def access_cycles(self, address: int) -> int:
        """Latency of one line fetch from memory."""
        row = address // self.row_bytes
        self.stats.accesses += 1
        if row == self._open_row:
            self.stats.row_hits += 1
            return max(1, self.access_latency - self.row_hit_discount)
        self._open_row = row
        return self.access_latency

    def reset(self) -> None:
        self._open_row = None
        self.stats = MainMemoryStatistics()


class SharedL2Cache:
    """Unified second-level cache backed by main memory."""

    def __init__(
        self,
        config: CacheConfig,
        memory: MainMemory,
        *,
        hit_latency: int = 4,
    ) -> None:
        self.cache = SetAssociativeCache(config)
        self.memory = memory
        self.hit_latency = hit_latency

    def access_cycles(self, address: int, *, is_write: bool = False) -> int:
        """Cycles spent in the L2 (and memory, on an L2 miss) for a request."""
        hit, writeback_line = self.cache.access(address, is_write=is_write)
        cycles = self.hit_latency
        if not hit:
            cycles += self.memory.access_cycles(address)
            if writeback_line is not None:
                # Dirty L2 victim: charge the memory write (no row reuse
                # credit for writes, conservatively).
                cycles += self.memory.access_latency // 2
        return cycles

    @property
    def stats(self):
        return self.cache.stats


@dataclass
class BusStatistics:
    """Transaction counters and occupancy accounting."""

    transactions: int = 0
    busy_cycles: int = 0
    contention_cycles: int = 0
    by_kind: Dict[str, int] = field(default_factory=dict)

    def record(self, kind: str, duration: int, contention: int) -> None:
        self.transactions += 1
        self.busy_cycles += duration
        self.contention_cycles += contention
        self.by_kind[kind] = self.by_kind.get(kind, 0) + 1


class Bus:
    """A shared bus: fixed per-transaction latency plus contention.

    The other cores' interference is the analytic :class:`ContentionModel`
    charge, added to every transaction.
    """

    def __init__(
        self,
        *,
        request_latency: int = 2,
        transfer_latency: int = 4,
        contention: ContentionModel | None = None,
    ) -> None:
        self.request_latency = request_latency
        self.transfer_latency = transfer_latency
        self.contention = contention or ContentionModel()
        self.stats = BusStatistics()

    def transaction_cycles(self, kind: str = "line") -> int:
        """Latency of one bus transaction including interference.

        ``kind`` is ``"line"`` for a cache-line transfer (miss fill or
        dirty write-back) and ``"word"`` for a single-word write-through
        store; the word case only pays the request plus one beat.
        """
        if kind == "word":
            duration = self.request_latency + max(1, self.transfer_latency // 4)
        else:
            duration = self.request_latency + self.transfer_latency
        contention = self.contention.delay()
        self.stats.record(kind, duration + contention, contention)
        return duration + contention


@dataclass(frozen=True)
class DataAccessOutcome:
    """Timing outcome of one DL1 data access.

    ``extra_cycles`` is the latency *beyond* the nominal single-cycle DL1
    access: zero on a hit, the full miss round-trip (plus any dirty
    write-back) on a miss.  For stores, ``store_drain_latency`` is how
    long the corresponding write-buffer entry occupies the buffer once it
    reaches the head.
    """

    hit: bool
    extra_cycles: int = 0
    store_drain_latency: int = 0
    caused_writeback: bool = False


class MemoryHierarchy:
    """Private L1s backed by a bus, L2 and memory."""

    def __init__(self, config: MemoryHierarchyConfig) -> None:
        self.config = config
        self.memory = MainMemory(access_latency=config.memory_latency)
        self.l2 = SharedL2Cache(
            config.l2, self.memory, hit_latency=config.l2_hit_latency
        )
        self.bus = Bus(
            request_latency=config.bus_request_latency,
            transfer_latency=config.bus_transfer_latency,
            contention=ContentionModel(
                contenders=config.bus_contenders,
                slot_cycles=config.bus_slot_cycles,
                mode=config.bus_contention_mode,
            ),
        )
        self.l1d = SetAssociativeCache(config.l1d)
        self.l1i = SetAssociativeCache(config.l1i)

    # ------------------------------------------------------------------ #
    # instruction side                                                   #
    # ------------------------------------------------------------------ #
    def instruction_fetch_cycles(self, pc: int) -> int:
        """Extra fetch cycles beyond the single-cycle L1I hit (0 on a hit)."""
        hit, _ = self.l1i.access(pc)
        if hit:
            return 0
        return self.bus.transaction_cycles("line") + self.l2.access_cycles(
            self.l1i.line_address(pc)
        )

    # ------------------------------------------------------------------ #
    # data side                                                          #
    # ------------------------------------------------------------------ #
    def load_access(self, address: int) -> DataAccessOutcome:
        """Timing of one load (hit/miss decision plus miss penalty)."""
        hit, writeback_line = self.l1d.access(address)
        if hit:
            return DataAccessOutcome(hit=True)
        extra = self._miss_penalty(address, writeback_line)
        return DataAccessOutcome(
            hit=False, extra_cycles=extra, caused_writeback=writeback_line is not None
        )

    def store_access(self, address: int) -> DataAccessOutcome:
        """Timing of one store as seen by the write buffer.

        Write-back DL1: a store hit drains in a single DL1 cycle; a store
        miss (write-allocate) must first fetch the line, so the buffer
        entry holds the miss round-trip.  Write-through DL1: every store
        pushes the word to the L2 over the bus regardless of hit/miss.
        """
        write_back = self.config.l1d.write_policy is WritePolicy.WRITE_BACK
        hit, writeback_line = self.l1d.access(address, is_write=True)
        if write_back:
            if hit:
                return DataAccessOutcome(hit=True, store_drain_latency=1)
            extra = self._miss_penalty(address, writeback_line)
            return DataAccessOutcome(
                hit=False,
                store_drain_latency=1 + extra,
                caused_writeback=writeback_line is not None,
            )
        # Write-through: the DL1 lookup only decides whether the line is
        # also updated locally; the drain always pays a bus + L2 word write.
        drain = self.bus.transaction_cycles("word") + self.config.store_through_latency
        return DataAccessOutcome(hit=hit, store_drain_latency=drain)

    def _miss_penalty(self, address: int, writeback_line: Optional[int]) -> int:
        cycles = self.bus.transaction_cycles("line")
        cycles += self.l2.access_cycles(self.l1d.line_address(address))
        if writeback_line is not None:
            # Dirty victim: the write-back occupies the bus and the L2
            # write port before the fill can complete (no write buffer
            # between L1 and L2 in this simple model).
            cycles += self.bus.transaction_cycles("line")
            cycles += self.l2.access_cycles(writeback_line, is_write=True) // 2
        return cycles

    # ------------------------------------------------------------------ #
    # statistics                                                         #
    # ------------------------------------------------------------------ #
    def dl1_statistics(self):
        return self.l1d.stats


def hierarchy_tape(trace: FunctionalTrace, config: MemoryHierarchyConfig) -> MemoryTape:
    """The :class:`MemoryTape` of ``trace`` replayed through a :class:`MemoryHierarchy`.

    One replay, fetch(i) then the data access of *i* in program order:
    the L1I and DL1 share the L2, its open memory rows and the bus.
    """
    hierarchy = MemoryHierarchy(config)
    fetch_cycles = hierarchy.instruction_fetch_cycles
    load_access = hierarchy.load_access
    store_access = hierarchy.store_access
    fetch_extra = []
    data = []
    line_mask = ~(config.l1i.line_bytes - 1)
    fetched_line = None
    for pc, instr, address in zip(trace.pcs, trace.instructions, trace.addresses):
        if pc & line_mask == fetched_line:
            # The line fetched last is its set's MRU line: a hit whose
            # only other effect is an L1I hit count no tape reports.
            fetch_extra.append(0)
        else:
            fetch_extra.append(fetch_cycles(pc))
            fetched_line = pc & line_mask
        if address is not None and instr.is_load:
            outcome = load_access(address)
            data.append(-1 if outcome.hit else outcome.extra_cycles)
        elif address is not None and instr.is_store:
            data.append(store_access(address).store_drain_latency)
        else:
            data.append(0)
    return MemoryTape(
        fetch_extra=fetch_extra,
        data=data,
        dl1_stats=hierarchy.dl1_statistics().as_dict(),
        bus_transactions=hierarchy.bus.stats.transactions,
        bus_contention_cycles=hierarchy.bus.stats.contention_cycles,
    )
