"""Tiny bounded-LRU helpers shared by the per-process caches.

Two hot caches use the same policy — the golden-run cache
(:mod:`repro.workloads.golden`) and the fault-sampling space cache
(:mod:`repro.campaign.sampling`): a plain insertion-ordered ``dict`` where
a hit re-inserts the entry (making it the youngest) and an insert evicts
from the front until under the cap.  Keeping them plain dicts (rather
than a cache class) preserves direct introspection in tests; these two
functions keep the eviction policy identical everywhere.
"""

from __future__ import annotations

from typing import Dict, Optional, TypeVar

K = TypeVar("K")
V = TypeVar("V")


def lru_get(cache: Dict[K, V], key: K) -> Optional[V]:
    """Fetch ``key``, promoting it to most-recently-used on a hit."""
    value = cache.get(key)
    if value is not None:
        del cache[key]
        cache[key] = value
    return value


def lru_put(cache: Dict[K, V], key: K, value: V, max_entries: int) -> None:
    """Insert ``key``, evicting least-recently-used entries beyond the cap."""
    while len(cache) >= max_entries:
        cache.pop(next(iter(cache)))
    cache[key] = value
