"""Off-chip main-memory timing model.

Main memory is the last level of the hierarchy.  The model is a fixed
access latency plus an optional very simple row-buffer effect: accesses
that fall into the most recently opened "row" (a coarse address window)
are cheaper, which makes streaming workloads behave qualitatively
differently from pointer-chasing ones even beyond the caches.
"""

from __future__ import annotations

from dataclasses import dataclass


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
