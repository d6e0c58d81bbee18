"""Tests for the bus, main memory, L2 and the per-core hierarchy façade."""

import pytest

from repro.memory.bus import Bus, ContentionModel
from repro.memory.config import CacheConfig, MemoryHierarchyConfig, WritePolicy
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.l2_cache import SharedL2Cache
from repro.memory.main_memory import MainMemory


class TestContentionModel:
    def test_no_contention(self):
        assert ContentionModel(contenders=0, mode="none").delay() == 0
        assert ContentionModel(contenders=3, mode="none").delay() == 0

    def test_worst_case_full_round(self):
        assert ContentionModel(contenders=3, slot_cycles=6, mode="worst").delay() == 18

    def test_average_half_round(self):
        assert ContentionModel(contenders=3, slot_cycles=6, mode="average").delay() == 9

    def test_unknown_mode_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown contention mode"):
            ContentionModel(contenders=1, mode="pessimal")

    def test_unknown_mode_rejected_even_without_contenders(self):
        # Regression: delay() returned 0 for any mode whenever
        # contenders <= 0, so a typo like "wrost" was silently accepted
        # on isolation configs and only exploded when contenders rose.
        with pytest.raises(ValueError, match="wrost"):
            ContentionModel(contenders=0, mode="wrost")


class TestBus:
    def test_line_vs_word_transaction(self):
        bus = Bus(request_latency=2, transfer_latency=4)
        assert bus.transaction_cycles("line") == 6
        assert bus.transaction_cycles("word") < 6

    def test_contention_added_and_recorded(self):
        bus = Bus(
            request_latency=2,
            transfer_latency=4,
            contention=ContentionModel(contenders=2, slot_cycles=5, mode="worst"),
        )
        cycles = bus.transaction_cycles("line")
        assert cycles == 6 + 10
        assert bus.stats.contention_cycles == 10
        assert bus.stats.transactions == 1


class TestMainMemoryAndL2:
    def test_row_hit_discount(self):
        memory = MainMemory(access_latency=20, row_bytes=1024, row_hit_discount=6)
        first = memory.access_cycles(0x1000)
        second = memory.access_cycles(0x1040)  # same row
        third = memory.access_cycles(0x9000)   # new row
        assert first == 20 and second == 14 and third == 20
        assert memory.stats.row_hits == 1 and memory.stats.accesses == 3

    def test_l2_hit_cheaper_than_miss(self):
        memory = MainMemory(access_latency=20)
        l2 = SharedL2Cache(
            CacheConfig(size_bytes=4096, line_bytes=32, ways=4, name="l2"),
            memory,
            hit_latency=4,
        )
        miss_cycles = l2.access_cycles(0x4000)
        hit_cycles = l2.access_cycles(0x4000)
        assert hit_cycles == 4
        assert miss_cycles > hit_cycles


class TestMemoryHierarchy:
    def _hierarchy(self, **kwargs) -> MemoryHierarchy:
        return MemoryHierarchy(MemoryHierarchyConfig(**kwargs))

    def test_load_hit_has_no_extra_latency(self):
        hierarchy = self._hierarchy()
        miss = hierarchy.load_access(0x40100000)
        hit = hierarchy.load_access(0x40100000)
        assert miss.extra_cycles > 0 and not miss.hit
        assert hit.hit and hit.extra_cycles == 0

    def test_store_drain_latency_write_back_vs_write_through(self):
        wb = self._hierarchy()
        write_through = CacheConfig(name="dl1", write_policy=WritePolicy.WRITE_THROUGH)
        wt = MemoryHierarchy(MemoryHierarchyConfig(l1d=write_through))
        # Warm the line so both stores hit in the DL1.
        wb.load_access(0x40100000)
        wt.load_access(0x40100000)
        wb_store = wb.store_access(0x40100000)
        wt_store = wt.store_access(0x40100000)
        assert wb_store.store_drain_latency == 1
        assert wt_store.store_drain_latency > wb_store.store_drain_latency

    def test_instruction_fetch_hit_is_free(self):
        hierarchy = self._hierarchy()
        assert hierarchy.instruction_fetch_cycles(0x40000000) > 0
        assert hierarchy.instruction_fetch_cycles(0x40000004) == 0

    def test_contention_raises_miss_penalty(self):
        quiet = self._hierarchy()
        noisy = MemoryHierarchy(
            MemoryHierarchyConfig().with_contention(3, "worst")
        )
        assert (
            noisy.load_access(0x40200000).extra_cycles
            > quiet.load_access(0x40200000).extra_cycles
        )

    def test_dirty_eviction_charges_writeback(self):
        config = MemoryHierarchyConfig(
            l1d=CacheConfig(size_bytes=1024, line_bytes=32, ways=2, name="dl1")
        )
        hierarchy = MemoryHierarchy(config)
        # Dirty a line, then force its eviction with two conflicting lines.
        hierarchy.store_access(0x40100000)
        hierarchy.load_access(0x40100000 + 512)
        with_writeback = hierarchy.load_access(0x40100000 + 1024)
        assert with_writeback.caused_writeback
