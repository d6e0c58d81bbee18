"""Configuration dataclasses for the memory hierarchy.

Defaults follow the evaluation platform of the paper (Section IV): a
LEON4/NGMP-like core with a 16 KiB, 4-way, 32 B/line DL1, a private L1I
of the same geometry, a shared 256 KiB L2 behind a bus, and off-chip
memory.  Latencies are parameters of our model, not values taken from
the paper (which does not list them); the chosen defaults give a
baseline CPI in the range typical for this class of core, and the
benchmark harness reports sensitivity to them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace


class WritePolicy(enum.Enum):
    """DL1 write policy."""

    WRITE_BACK = "write-back"
    WRITE_THROUGH = "write-through"


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and write policy of one cache level (replacement is LRU)."""

    size_bytes: int = 16 * 1024
    line_bytes: int = 32
    ways: int = 4
    write_policy: WritePolicy = WritePolicy.WRITE_BACK
    write_allocate: bool = True
    name: str = "cache"

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.line_bytes <= 0 or self.ways <= 0:
            raise ValueError("cache geometry values must be positive")
        if self.size_bytes % (self.line_bytes * self.ways) != 0:
            raise ValueError(
                f"{self.name}: size {self.size_bytes} is not divisible by "
                f"ways*line ({self.ways}*{self.line_bytes})"
            )
        if self.line_bytes & (self.line_bytes - 1):
            raise ValueError("line size must be a power of two")
        if self.line_bytes < 4:
            raise ValueError(
                f"{self.name}: a {self.line_bytes}-byte line cannot hold a 32-bit word"
            )
        sets = self.size_bytes // (self.line_bytes * self.ways)
        if sets & (sets - 1):
            raise ValueError("number of sets must be a power of two")

    @property
    def sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.ways)

    @property
    def lines(self) -> int:
        return self.sets * self.ways

    def with_write_policy(self, policy: WritePolicy) -> "CacheConfig":
        return replace(self, write_policy=policy)


@dataclass(frozen=True)
class MemoryHierarchyConfig:
    """Latency and topology parameters of the full hierarchy.

    All latencies are expressed in core cycles.

    * ``l2_hit_latency`` — cycles spent inside the L2 array on a hit.
    * ``bus_request_latency`` / ``bus_transfer_latency`` — cycles to win
      the bus and to move a line (or a store word) across it.
    * ``memory_latency`` — additional cycles for an L2 miss serviced by
      off-chip memory.
    * ``bus_contenders`` / ``bus_contention_mode`` — interference from
      the other cores of the SoC (see :class:`repro.memory.bus.Bus`).
    * ``bus_slot_cycles`` — length of one round-robin arbitration slot;
      the :class:`~repro.memory.bus.ContentionModel` charges
      ``contenders * bus_slot_cycles`` per transaction in the ``worst``
      mode and half of that in the ``average`` mode.
    """

    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig(name="dl1")
    )
    l1i: CacheConfig = field(
        default_factory=lambda: CacheConfig(name="il1")
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_bytes=256 * 1024, line_bytes=32, ways=8, name="l2"
        )
    )
    l2_hit_latency: int = 4
    bus_request_latency: int = 2
    bus_transfer_latency: int = 4
    memory_latency: int = 20
    store_through_latency: int = 6
    bus_contenders: int = 0
    bus_contention_mode: str = "none"  # "none" | "average" | "worst"
    bus_slot_cycles: int = 6

    def with_contention(
        self, contenders: int, mode: str = "worst"
    ) -> "MemoryHierarchyConfig":
        """Return a copy with ``contenders`` other cores loading the bus."""
        return replace(self, bus_contenders=contenders, bus_contention_mode=mode)
