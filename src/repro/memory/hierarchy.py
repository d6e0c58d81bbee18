"""Per-core view of the memory hierarchy.

The :class:`MemoryHierarchy` owns the private L1 instruction and data
caches of one core, plus the bus, L2 and main memory behind them (the
other cores' share of the bus is the analytic contention charge).  All
methods return *latencies in cycles*; the pipeline is responsible for
scheduling them into stage occupancy, and owns the cycle-dependent
write buffer.  No accessor takes a cycle: the outcomes depend only on
the sequence of accesses, which is why the timing engine replays a
hierarchy once per trace into a memory tape
(:func:`repro.pipeline.timing.memory_tape`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.memory.bus import Bus, ContentionModel
from repro.memory.cache import SetAssociativeCache
from repro.memory.config import MemoryHierarchyConfig, WritePolicy
from repro.memory.l2_cache import SharedL2Cache
from repro.memory.main_memory import MainMemory


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
