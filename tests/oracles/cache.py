"""The object set-associative cache, kept as the test oracle.

:class:`ReferenceCache` is the seed cache model: every set is allocated
up front as a list of :class:`_CacheLine` ways (valid, dirty, tag) with
an :class:`LruState` recency order, invalid ways are preferred on a
fill, and every access returns a :class:`CacheAccessResult` naming the
way it used.  Production caches are the lazily created flat sets of
:mod:`repro.memory.cache`.

Like :mod:`oracles.ecc`, :mod:`oracles.timing`
and :mod:`oracles.functional`, this module is a test oracle:
the tests drive both caches access by access (hit, write-back line,
final :class:`~repro.memory.cache.CacheStatistics`) over every kernel
and hierarchy configuration the experiments time, and the fault
campaign oracle's :class:`~oracles.campaign.ShadowCache` is a
:class:`ReferenceCache`.  Nothing on a production path imports it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.memory.cache import CacheStatistics
from repro.memory.config import CacheConfig, WritePolicy


class LruState:
    """True LRU: maintain the recency order of all ways in the set."""

    def __init__(self, ways: int) -> None:
        self.ways = ways
        # Most-recently-used first.
        self._order: List[int] = list(range(ways))

    def touch(self, way: int) -> None:
        """Record a hit on ``way``."""
        self._order.remove(way)
        self._order.insert(0, way)

    def fill(self, way: int) -> None:
        """Record that ``way`` was (re)filled."""
        self.touch(way)

    def victim(self, valid: List[bool]) -> int:
        """Return the way to evict.  Invalid ways are always preferred."""
        for way, is_valid in enumerate(valid):
            if not is_valid:
                return way
        return self._order[-1]


@dataclass(frozen=True)
class CacheAccessResult:
    """Outcome of one cache access (timing view)."""

    hit: bool
    set_index: int
    tag: int
    way: int
    writeback: bool = False
    writeback_address: Optional[int] = None
    allocated: bool = False
    #: Line address of the valid victim this access replaced (set for
    #: clean evictions too, unlike ``writeback_address``); ``None`` when
    #: the fill used an invalid way or no line was brought in.
    evicted_address: Optional[int] = None

    @property
    def miss(self) -> bool:
        return not self.hit


@dataclass
class _CacheLine:
    valid: bool = False
    dirty: bool = False
    tag: int = 0


class ReferenceCache:
    """The object cache: ``_CacheLine`` ways plus an :class:`LruState` per set."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.line_bits = config.line_bytes.bit_length() - 1
        self.set_bits = config.sets.bit_length() - 1
        self._sets: List[List[_CacheLine]] = [
            [_CacheLine() for _ in range(config.ways)] for _ in range(config.sets)
        ]
        self._replacement = [LruState(config.ways) for _ in range(config.sets)]
        self.stats = CacheStatistics()

    # ------------------------------------------------------------------ #
    # address helpers                                                    #
    # ------------------------------------------------------------------ #
    def split_address(self, address: int) -> tuple:
        """Return ``(tag, set_index, offset)`` for ``address``."""
        offset = address & (self.config.line_bytes - 1)
        set_index = (address >> self.line_bits) & (self.config.sets - 1)
        tag = address >> (self.line_bits + self.set_bits)
        return tag, set_index, offset

    def line_address(self, address: int) -> int:
        return address & ~(self.config.line_bytes - 1)

    def _rebuild_address(self, tag: int, set_index: int) -> int:
        return (tag << (self.line_bits + self.set_bits)) | (set_index << self.line_bits)

    # ------------------------------------------------------------------ #
    # lookup / access                                                    #
    # ------------------------------------------------------------------ #
    def probe(self, address: int) -> bool:
        """Return True if ``address`` currently hits, without side effects."""
        tag, set_index, _ = self.split_address(address)
        return any(
            line.valid and line.tag == tag for line in self._sets[set_index]
        )

    def access(self, address: int, *, is_write: bool = False) -> CacheAccessResult:
        """Perform a load/store lookup, allocating on miss per the config.

        Returns the timing-relevant outcome; the caller (hierarchy) is
        responsible for charging miss and writeback latencies.
        """
        tag, set_index, _ = self.split_address(address)
        lines = self._sets[set_index]
        replacement = self._replacement[set_index]
        for way, line in enumerate(lines):
            if line.valid and line.tag == tag:
                replacement.touch(way)
                if is_write:
                    self.stats.write_hits += 1
                    if self.config.write_policy is WritePolicy.WRITE_BACK:
                        line.dirty = True
                else:
                    self.stats.read_hits += 1
                return CacheAccessResult(
                    hit=True, set_index=set_index, tag=tag, way=way
                )
        # Miss.
        if is_write:
            self.stats.write_misses += 1
        else:
            self.stats.read_misses += 1
        allocate = not is_write or self.config.write_allocate
        if not allocate:
            # Write-around: no line is brought in.
            return CacheAccessResult(
                hit=False, set_index=set_index, tag=tag, way=-1, allocated=False
            )
        victim_way = replacement.victim([line.valid for line in lines])
        victim = lines[victim_way]
        writeback = bool(victim.valid and victim.dirty)
        evicted_address = (
            self._rebuild_address(victim.tag, set_index) if victim.valid else None
        )
        writeback_address = evicted_address if writeback else None
        if writeback:
            self.stats.writebacks += 1
        victim.valid = True
        victim.dirty = bool(
            is_write and self.config.write_policy is WritePolicy.WRITE_BACK
        )
        victim.tag = tag
        replacement.fill(victim_way)
        self.stats.fills += 1
        return CacheAccessResult(
            hit=False,
            set_index=set_index,
            tag=tag,
            way=victim_way,
            writeback=writeback,
            writeback_address=writeback_address,
            allocated=True,
            evicted_address=evicted_address,
        )

    def invalidate_all(self) -> None:
        """Invalidate every line (keeps statistics)."""
        for lines in self._sets:
            for line in lines:
                line.valid = False
                line.dirty = False

    def dirty_line_count(self) -> int:
        return sum(
            1 for lines in self._sets for line in lines if line.valid and line.dirty
        )

    def valid_line_count(self) -> int:
        return sum(1 for lines in self._sets for line in lines if line.valid)
