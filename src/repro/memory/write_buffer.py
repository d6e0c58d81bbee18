"""Store/write buffer model.

The NGMP memory stage holds stores in a write buffer until they can
access the DL1 (or, for a write-through DL1, until they have been pushed
to the L2 over the bus).  Two behaviours from the paper matter for
timing and are reproduced here:

* loads stall in the memory stage until the write buffer is *empty*
  (the simple consistency rule the NGMP uses);
* when a store finds the buffer full, the pipeline stalls with
  back-pressure until the buffer has *completely* drained.

The buffer is modelled as a queue of drain-completion times, which is
sufficient because the timing pipeline processes instructions in order
and time is monotonic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List


@dataclass
class WriteBufferStatistics:
    stores_buffered: int = 0
    full_stalls: int = 0
    full_stall_cycles: int = 0
    load_drain_stall_cycles: int = 0

    def as_dict(self):
        return {
            "stores_buffered": self.stores_buffered,
            "full_stalls": self.full_stalls,
            "full_stall_cycles": self.full_stall_cycles,
            "load_drain_stall_cycles": self.load_drain_stall_cycles,
        }


@dataclass
class WriteBuffer:
    """A fixed-capacity store buffer with sequential drain."""

    capacity: int = 4
    _completions: List[int] = field(default_factory=list)
    stats: WriteBufferStatistics = field(default_factory=WriteBufferStatistics)

    def _expire(self, cycle: int) -> None:
        self._completions = [c for c in self._completions if c > cycle]

    def occupancy(self, cycle: int) -> int:
        """Entries still draining at ``cycle``."""
        self._expire(cycle)
        return len(self._completions)

    def drain_complete_time(self, cycle: int) -> int:
        """Cycle at which the buffer becomes empty (>= ``cycle``)."""
        self._expire(cycle)
        if not self._completions:
            return cycle
        return max(self._completions)

    def push(self, cycle: int, drain_latency: int) -> int:
        """Insert a store at ``cycle``; return the cycle the store's memory
        stage can complete (after any full-buffer back-pressure stall).

        ``drain_latency`` is the time this entry needs once it reaches the
        head of the buffer: a DL1 write for a write-back cache, or a bus +
        L2 transaction for a write-through cache (plus any miss handling
        charged by the hierarchy).
        """
        self._expire(cycle)
        stalled_until = cycle
        if len(self._completions) >= self.capacity:
            # Back-pressure: wait until the buffer fully drains.
            stalled_until = max(self._completions)
            self.stats.full_stalls += 1
            self.stats.full_stall_cycles += stalled_until - cycle
            self._completions = []
        start = max(stalled_until, self._completions[-1] if self._completions else 0)
        self._completions.append(start + drain_latency)
        self.stats.stores_buffered += 1
        return stalled_until

    def record_load_wait(self, waited_cycles: int) -> None:
        if waited_cycles > 0:
            self.stats.load_drain_stall_cycles += waited_cycles

    def reset(self) -> None:
        self._completions = []
        self.stats = WriteBufferStatistics()
