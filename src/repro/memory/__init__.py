"""Cache and memory-hierarchy timing models.

The hierarchy mirrors the NGMP organisation used in the paper's
evaluation: each core has private L1 instruction and data caches; all
cores share a bus to a unified L2; the L2 connects to off-chip memory.
Only *timing* is modelled here: architectural data values live in the
functional interpreter.
"""

from repro.memory.bus import CONTENTION_MODES, Bus, ContentionModel
from repro.memory.cache import CacheAccessResult, SetAssociativeCache
from repro.memory.config import CacheConfig, MemoryHierarchyConfig, WritePolicy
from repro.memory.hierarchy import DataAccessOutcome, MemoryHierarchy
from repro.memory.l2_cache import SharedL2Cache
from repro.memory.main_memory import MainMemory
from repro.memory.write_buffer import WriteBuffer

__all__ = [
    "Bus",
    "CONTENTION_MODES",
    "CacheAccessResult",
    "CacheConfig",
    "ContentionModel",
    "DataAccessOutcome",
    "MainMemory",
    "MemoryHierarchy",
    "MemoryHierarchyConfig",
    "SetAssociativeCache",
    "SharedL2Cache",
    "WriteBuffer",
    "WritePolicy",
]
