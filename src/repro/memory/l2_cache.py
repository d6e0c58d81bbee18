"""Shared L2 cache model.

The L2 is unified, SECDED-protected (per the paper's baseline platform)
and shared between the four cores of the NGMP.  Because the SECDED check
is folded into the already multi-cycle L2 access, the paper treats its
latency impact as negligible; we simply include it in ``hit_latency``.

Each simulated core gets its own instance: the model times one core's
requests, and the other cores appear only as the analytic bus
contention charge (:class:`repro.memory.bus.ContentionModel`), not as
L2 traffic.
"""

from __future__ import annotations

from repro.memory.cache import SetAssociativeCache
from repro.memory.config import CacheConfig
from repro.memory.main_memory import MainMemory


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
