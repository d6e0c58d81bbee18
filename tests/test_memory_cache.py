"""Tests for the set-associative cache, LRU replacement and write buffer.

The hit/miss behaviour is asserted on both the production cache (flat
:class:`~repro.memory.cache.LruSet` sets) and its oracle
:class:`~repro.memory.reference_cache.ReferenceCache` (the object cache).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ecc.secded import HsiaoSecDedCode
from repro.memory.cache import SetAssociativeCache
from repro.memory.config import CacheConfig, WritePolicy
from repro.memory.write_buffer import WriteBuffer

from oracles.cache import LruState, ReferenceCache
from oracles.campaign import ShadowCache
from oracles.pipeline import record_load_wait

#: The production cache and its oracle; TestHitMiss runs on both.
CACHE_KINDS = (SetAssociativeCache, ReferenceCache)


def _small_cache(kind=SetAssociativeCache, **overrides):
    defaults = dict(size_bytes=1024, line_bytes=32, ways=2, name="test")
    defaults.update(overrides)
    return kind(CacheConfig(**defaults))


def _access(cache, address, *, is_write=False):
    """``(hit, writeback_line)`` of one access on either cache."""
    if isinstance(cache, ReferenceCache):
        result = cache.access(address, is_write=is_write)
        return result.hit, result.writeback_address
    return cache.access(address, is_write=is_write)


def _lru_set(cache, address):
    """The production cache's set holding ``address`` (None if never touched)."""
    return cache.sets.get((address >> cache.line_bits) & (cache.config.sets - 1))


def _resident(cache, address) -> bool:
    if isinstance(cache, ReferenceCache):
        return cache.probe(address)
    lru = _lru_set(cache, address)
    return lru is not None and lru.resident(cache.line_address(address))


def _dirty_lines(cache) -> int:
    if isinstance(cache, ReferenceCache):
        return cache.dirty_line_count()
    return sum(len(lru.dirty) for lru in cache.sets.values())


class TestGeometry:
    def test_sets_and_lines(self):
        config = CacheConfig(size_bytes=16 * 1024, line_bytes=32, ways=4)
        assert config.sets == 128
        assert config.lines == 512

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=1000, line_bytes=32, ways=4)
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=1024, line_bytes=24, ways=2)

    def test_line_must_hold_a_word(self):
        with pytest.raises(ValueError, match="32-bit word"):
            CacheConfig(size_bytes=1024, line_bytes=2, ways=2)
        assert CacheConfig(size_bytes=1024, line_bytes=4, ways=2).sets == 128

    def test_address_split_round_trip(self):
        cache = _small_cache(ReferenceCache)
        tag, set_index, offset = cache.split_address(0x40100124)
        assert offset == 0x4
        reconstructed = cache._rebuild_address(tag, set_index) + offset
        assert reconstructed == 0x40100124


class TestHitMiss:
    def test_first_access_misses_then_hits(self):
        for kind in CACHE_KINDS:
            cache = _small_cache(kind)
            assert not _access(cache, 0x1000)[0]
            assert _access(cache, 0x1000)[0]
            assert _access(cache, 0x101C)[0]  # same 32-byte line

    def test_lru_eviction_within_set(self):
        for kind in CACHE_KINDS:
            cache = _small_cache(kind)  # 2-way, 16 sets, 32B lines -> set stride 512
            a, b, c = 0x0, 0x200, 0x400  # all map to set 0
            _access(cache, a)
            _access(cache, b)
            _access(cache, a)          # a is now most recently used
            hit, _ = _access(cache, c)  # evicts b
            assert not hit
            assert _resident(cache, a)
            assert not _resident(cache, b)

    def test_write_back_marks_dirty_and_writes_back(self):
        for kind in CACHE_KINDS:
            cache = _small_cache(kind, write_policy=WritePolicy.WRITE_BACK)
            _access(cache, 0x0, is_write=True)
            assert _dirty_lines(cache) == 1
            _access(cache, 0x200)
            hit, writeback_line = _access(cache, 0x400)  # evicts the dirty line at 0x0
            assert not hit
            assert writeback_line == 0x0

    def test_write_through_never_dirty(self):
        for kind in CACHE_KINDS:
            cache = _small_cache(kind, write_policy=WritePolicy.WRITE_THROUGH)
            _access(cache, 0x0, is_write=True)
            assert _dirty_lines(cache) == 0

    def test_write_no_allocate(self):
        for kind in CACHE_KINDS:
            cache = _small_cache(kind, write_allocate=False)
            hit, _ = _access(cache, 0x3000, is_write=True)
            assert not hit
            assert not _resident(cache, 0x3000)
        result = _small_cache(ReferenceCache, write_allocate=False).access(
            0x3000, is_write=True
        )
        assert result.miss and not result.allocated

    def test_invalidate_all(self):
        # Only the oracle can invalidate: no production path ever does.
        cache = _small_cache(ReferenceCache)
        cache.access(0x0)
        cache.invalidate_all()
        assert cache.valid_line_count() == 0

    def test_statistics(self):
        for kind in CACHE_KINDS:
            cache = _small_cache(kind)
            _access(cache, 0x0)
            _access(cache, 0x0)
            _access(cache, 0x40, is_write=True)
            stats = cache.stats
            assert stats.accesses == 3
            assert stats.read_hits == 1 and stats.read_misses == 1
            assert stats.write_misses == 1
            assert 0 < stats.hit_rate < 1

    @given(st.lists(st.integers(min_value=0, max_value=0xFFFF), min_size=1, max_size=200))
    @settings(max_examples=25)
    def test_second_access_to_same_line_always_hits(self, addresses):
        for kind in CACHE_KINDS:
            cache = kind(CacheConfig(size_bytes=16 * 1024, line_bytes=32, ways=4))
            for address in addresses:
                _access(cache, address)
                assert _access(cache, address)[0]


class TestEccShadow:
    """The ECC shadow array of the fault-injection oracle's cache."""

    def _cache(self) -> ShadowCache:
        return ShadowCache(
            CacheConfig(size_bytes=1024, line_bytes=32, ways=2), HsiaoSecDedCode()
        )

    def test_store_load_round_trip(self):
        cache = self._cache()
        cache.ecc_store_word(0x100, 0xDEADBEEF)
        result = cache.ecc_code.decode(cache.ecc_load_raw(0x102))
        assert result.data == 0xDEADBEEF and not result.corrected
        assert cache.ecc_take_word(0x100) is not None
        assert cache.ecc_load_raw(0x100) is None

    def test_flip_and_correct(self):
        cache = self._cache()
        cache.access(0x40, is_write=True)  # resident and dirty
        cache.ecc_store_word(0x40, 0x12345678)
        armed = cache.arm_fault(0x40, bit=5, at_access=1)
        cache.access(0x80)
        assert armed.flipped and armed.dirty
        result = cache.ecc_code.decode(cache.ecc_load_raw(0x40))
        assert result.corrected and result.data == 0x12345678


class TestReplacementStates:
    def test_lru_prefers_invalid_ways(self):
        state = LruState(4)
        assert state.victim([True, False, True, True]) == 1

    def test_lru_order(self):
        state = LruState(2)
        state.fill(0)
        state.fill(1)
        state.touch(0)
        assert state.victim([True, True]) == 1


class TestWriteBuffer:
    def test_empty_buffer_reports_empty(self):
        buffer = WriteBuffer(capacity=2)
        assert buffer.occupancy(10) == 0
        assert buffer.drain_complete_time(10) == 10

    def test_entries_drain_over_time(self):
        buffer = WriteBuffer(capacity=4)
        buffer.push(10, drain_latency=5)
        assert buffer.occupancy(12) == 1
        assert buffer.occupancy(16) == 0

    def test_sequential_drain(self):
        buffer = WriteBuffer(capacity=4)
        buffer.push(10, drain_latency=5)
        buffer.push(10, drain_latency=5)
        # The second entry starts after the first finishes.
        assert buffer.drain_complete_time(10) == 20

    def test_full_buffer_back_pressure(self):
        buffer = WriteBuffer(capacity=1)
        buffer.push(10, drain_latency=8)
        stalled_until = buffer.push(11, drain_latency=8)
        assert stalled_until == 18
        assert buffer.stats.full_stalls == 1
        assert buffer.stats.full_stall_cycles == 7

    def test_statistics(self):
        buffer = WriteBuffer(capacity=2)
        buffer.push(0, 1)
        record_load_wait(buffer, 3)
        assert buffer.stats.stores_buffered == 1
        assert buffer.stats.load_drain_stall_cycles == 3
