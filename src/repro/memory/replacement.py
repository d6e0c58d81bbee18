"""LRU replacement state for one set of a set-associative cache.

A deliberately tiny state machine so it can be tested exhaustively.
LRU is the only replacement policy the modelled DL1, L1I and L2 use.
"""

from __future__ import annotations

from typing import List


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
