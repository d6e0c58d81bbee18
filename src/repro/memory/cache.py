"""Set-associative cache timing model.

The cache tracks which lines each set holds, their LRU order and which
are dirty: its job is to decide hits, misses and dirty evictions so the
hierarchy can charge the right latencies.  It holds no data:
architectural values live in the functional interpreter, and a fault
campaign tracks the one faulted word analytically
(:mod:`repro.campaign.triage`).

One set is an :class:`LruSet`: its resident line addresses, most
recently used first, and the subset of them that is dirty.  No
production path ever invalidates a line, so a set fills while it holds
fewer than ``ways`` lines and otherwise evicts its LRU line, the last
in the list; way numbers are never observable.  The same class is the
one-set metadata model of the fault campaign (the triage timelines of
:mod:`repro.campaign.timeline` and the watched set of a faulty resume,
:class:`repro.functional.interpreter.Watch`), so the memory tape and
campaign triage run on one set implementation.  :class:`SetAssociativeCache` creates a
set on its first access: most L2 sets are never touched.

The seed object cache is the test oracle
:class:`repro.memory.reference_cache.ReferenceCache`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.memory.config import CacheConfig, WritePolicy


class LruSet:
    """One LRU set: resident line addresses (MRU first) and the dirty ones."""

    __slots__ = ("lines", "dirty", "ways", "write_allocate", "write_back")

    def __init__(self, ways: int, *, write_allocate: bool, write_back: bool) -> None:
        self.lines: List[int] = []
        self.dirty: Set[int] = set()
        self.ways = ways
        self.write_allocate = write_allocate
        self.write_back = write_back

    def access(self, line: int, is_write: bool) -> Tuple[Optional[int], bool, bool]:
        """One load or store to ``line``.

        Returns ``(evicted_line, evicted_dirty, filled)``: the line this
        access evicted (None when the set had room or nothing was
        brought in), whether it was dirty, and whether ``line`` was
        filled (a miss that allocated).
        """
        lines = self.lines
        if line in lines:
            if lines[0] != line:
                lines.remove(line)
                lines.insert(0, line)
            if is_write and self.write_back:
                self.dirty.add(line)
            return None, False, False
        if is_write and not self.write_allocate:
            return None, False, False
        lines.insert(0, line)
        if is_write and self.write_back:
            self.dirty.add(line)
        if len(lines) > self.ways:
            evicted = lines.pop()
            if evicted in self.dirty:
                self.dirty.remove(evicted)
                return evicted, True, True
            return evicted, False, True
        return None, False, True

    def resident(self, line: int) -> bool:
        return line in self.lines

    def line_dirty(self, line: int) -> bool:
        return line in self.dirty


@dataclass
class CacheStatistics:
    """Per-cache access counters."""

    read_hits: int = 0
    read_misses: int = 0
    write_hits: int = 0
    write_misses: int = 0
    writebacks: int = 0
    fills: int = 0

    @property
    def reads(self) -> int:
        return self.read_hits + self.read_misses

    @property
    def writes(self) -> int:
        return self.write_hits + self.write_misses

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    @property
    def hits(self) -> int:
        return self.read_hits + self.write_hits

    @property
    def misses(self) -> int:
        return self.read_misses + self.write_misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def read_hit_rate(self) -> float:
        return self.read_hits / self.reads if self.reads else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "accesses": self.accesses,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "read_hit_rate": self.read_hit_rate,
            "writebacks": self.writebacks,
        }


class SetAssociativeCache:
    """A set-associative LRU cache with a configurable write policy.

    ``sets`` maps a set index to its :class:`LruSet`, created on the
    set's first access.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.line_bits = config.line_bytes.bit_length() - 1
        self.sets: Dict[int, LruSet] = {}
        self.stats = CacheStatistics()
        self._line_mask = ~(config.line_bytes - 1)
        self._set_mask = config.sets - 1
        self._write_back = config.write_policy is WritePolicy.WRITE_BACK

    def line_address(self, address: int) -> int:
        return address & self._line_mask

    def access(self, address: int, *, is_write: bool = False) -> Tuple[bool, Optional[int]]:
        """Perform a load/store lookup, allocating on miss per the config.

        Returns ``(hit, writeback_line)``: ``writeback_line`` is the
        dirty victim's line address, or None.  The caller (hierarchy)
        is responsible for charging miss and writeback latencies.
        """
        line = address & self._line_mask
        set_index = (address >> self.line_bits) & self._set_mask
        lru = self.sets.get(set_index)
        if lru is None:
            lru = self.sets[set_index] = LruSet(
                self.config.ways,
                write_allocate=self.config.write_allocate,
                write_back=self._write_back,
            )
        evicted, evicted_dirty, filled = lru.access(line, is_write)
        stats = self.stats
        if filled:
            if is_write:
                stats.write_misses += 1
            else:
                stats.read_misses += 1
            stats.fills += 1
            if evicted_dirty:
                stats.writebacks += 1
                return False, evicted
            return False, None
        if not is_write:
            stats.read_hits += 1
            return True, None
        if lru.lines and lru.lines[0] == line:  # a hit leaves its line MRU
            stats.write_hits += 1
            return True, None
        # Write-around: no line is brought in.
        stats.write_misses += 1
        return False, None
