"""Cache and memory-hierarchy timing models.

The hierarchy mirrors the NGMP organisation used in the paper's
evaluation: each core has private L1 instruction and data caches; all
cores share a bus to a unified L2; the L2 connects to off-chip memory.
Only *timing* is modelled here: architectural data values live in the
functional interpreter.  Every cache level is a
:class:`SetAssociativeCache` of lazily created :class:`LruSet` sets; the
seed object cache is the test oracle :mod:`repro.memory.reference_cache`
and is not exported.
"""

from repro.memory.bus import CONTENTION_MODES, Bus, ContentionModel
from repro.memory.cache import LruSet, SetAssociativeCache
from repro.memory.config import CacheConfig, MemoryHierarchyConfig, WritePolicy
from repro.memory.hierarchy import DataAccessOutcome, MemoryHierarchy
from repro.memory.l2_cache import SharedL2Cache
from repro.memory.main_memory import MainMemory
from repro.memory.write_buffer import WriteBuffer

__all__ = [
    "Bus",
    "CONTENTION_MODES",
    "CacheConfig",
    "ContentionModel",
    "DataAccessOutcome",
    "LruSet",
    "MainMemory",
    "MemoryHierarchy",
    "MemoryHierarchyConfig",
    "SetAssociativeCache",
    "SharedL2Cache",
    "WriteBuffer",
    "WritePolicy",
]
