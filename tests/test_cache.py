"""Tests for CacheLine, CacheSet, SetAssociativeCache and the hierarchy."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cache import (
    LEVEL_L1,
    LEVEL_L2,
    LEVEL_LLC,
    LEVEL_MEMORY,
    PrivateHierarchy,
    SetAssociativeCache,
)
from repro.cache.line import NO_PC_SLOT, CacheLine
from repro.cache.replacement.basic import LRUPolicy, lru_factory
from repro.cache.set_ import CacheSet
from repro.common.config import CacheGeometry

from conftest import ReferenceLRUCache


class TestCacheLine:
    def test_starts_invalid(self):
        line = CacheLine()
        assert not line.valid
        assert line.pc_slot == NO_PC_SLOT

    def test_fill(self):
        line = CacheLine()
        line.fill(tag=7, core=2, pc=0x400, dirty=True)
        assert line.valid and line.dirty
        assert (line.tag, line.core, line.pc) == (7, 2, 0x400)
        assert line.pc_slot == NO_PC_SLOT

    def test_invalidate_clears(self):
        line = CacheLine()
        line.fill(tag=7, core=0, pc=0, dirty=True)
        line.invalidate()
        assert not line.valid and not line.dirty


class TestCacheSet:
    def _set(self, ways=4):
        return CacheSet(ways, LRUPolicy(ways))

    def test_find_miss(self):
        assert self._set().find(1) == -1

    def test_allocate_and_find(self):
        cache_set = self._set()
        assert cache_set.allocate(5, core=0, pc=0, is_write=False) is None
        assert cache_set.find(5) >= 0

    def test_fills_invalid_ways_first(self):
        cache_set = self._set(2)
        assert cache_set.allocate(1, 0, 0, False) is None
        assert cache_set.allocate(2, 0, 0, False) is None
        assert cache_set.occupancy == 2

    def test_eviction_returns_victim(self):
        cache_set = self._set(2)
        cache_set.allocate(1, 0, 0, False)
        cache_set.allocate(2, 0, 0, True)
        evicted = cache_set.allocate(3, 0, 0, False)
        assert evicted == (1, False)  # LRU victim, clean

    def test_eviction_reports_dirty(self):
        cache_set = self._set(1)
        cache_set.allocate(1, 0, 0, True)
        assert cache_set.allocate(2, 0, 0, False) == (1, True)

    def test_touch_write_sets_dirty(self):
        cache_set = self._set(2)
        cache_set.allocate(1, 0, 0, False)
        cache_set.touch(cache_set.find(1), core=0, is_write=True)
        assert cache_set.allocate(2, 0, 0, False) is None
        assert cache_set.allocate(3, 0, 0, False) == (1, True)

    def test_invalidate(self):
        cache_set = self._set(2)
        cache_set.allocate(1, 0, 0, False)
        assert cache_set.invalidate(1)
        assert cache_set.find(1) == -1
        assert not cache_set.invalidate(1)
        assert cache_set.occupancy == 0

    def test_valid_lines(self):
        cache_set = self._set(4)
        cache_set.allocate(1, 0, 0, False)
        cache_set.allocate(2, 0, 0, False)
        assert sorted(line.tag for line in cache_set.valid_lines()) == [1, 2]


class TestSetAssociativeCache:
    def _cache(self, sets=4, ways=2):
        geometry = CacheGeometry(size_bytes=sets * ways * 64, block_bytes=64, ways=ways)
        return SetAssociativeCache(geometry, lru_factory(), "test")

    def test_miss_then_hit(self):
        cache = self._cache()
        assert not cache.access(0, 0, 0, False)
        assert cache.access(0, 0, 0, False)

    def test_distinct_sets_do_not_conflict(self):
        cache = self._cache(sets=4, ways=1)
        assert not cache.access(0, 0, 0, False)
        assert not cache.access(1, 0, 0, False)
        assert cache.access(0, 0, 0, False)
        assert cache.access(1, 0, 0, False)

    def test_lru_eviction_within_set(self):
        cache = self._cache(sets=1, ways=2)
        cache.access(0, 0, 0, False)
        cache.access(1, 0, 0, False)
        cache.access(2, 0, 0, False)  # evicts 0
        assert not cache.access(0, 0, 0, False)

    def test_probe_does_not_disturb(self):
        cache = self._cache(sets=1, ways=2)
        cache.access(0, 0, 0, False)
        cache.access(1, 0, 0, False)
        for _ in range(5):
            assert cache.probe(0)
        cache.access(2, 0, 0, False)  # LRU is still 0
        assert not cache.probe(0)

    def test_invalidate(self):
        cache = self._cache()
        cache.access(0, 0, 0, False)
        assert cache.invalidate(0)
        assert not cache.probe(0)
        assert not cache.invalidate(0)

    def test_stats_per_core(self):
        cache = self._cache()
        cache.access(0, core=1, pc=0, is_write=False)
        cache.access(0, core=2, pc=0, is_write=False)
        assert cache.stats.core_stats(1).misses == 1
        assert cache.stats.core_stats(2).hits == 1

    def test_writeback_counting(self):
        cache = self._cache(sets=1, ways=1)
        cache.access(0, 0, 0, True)
        cache.access(1, 0, 0, False)
        assert cache.stats.total.writebacks == 1
        assert cache.stats.total.evictions == 1

    def test_split_address_roundtrip(self):
        cache = self._cache(sets=8, ways=2)
        for block in (0, 7, 8, 123):
            index, tag = cache.split_address(block)
            assert (tag << 3) | index == block

    def test_occupancy_and_valid_lines(self):
        cache = self._cache(sets=2, ways=2)
        for block in range(4):
            cache.access(block, core=block % 2, pc=0, is_write=False)
        assert cache.occupancy == 4
        assert len(list(cache.valid_lines())) == 4
        occupancy = cache.occupancy_by_core()
        assert occupancy == {0: 2, 1: 2}

    @settings(max_examples=30)
    @given(st.lists(st.integers(0, 63), min_size=1, max_size=300))
    def test_matches_reference_lru(self, blocks):
        cache = self._cache(sets=4, ways=4)
        reference = ReferenceLRUCache(num_sets=4, ways=4)
        for block in blocks:
            assert cache.access(block, 0, 0, False) == reference.access(block)

    @settings(max_examples=20)
    @given(st.lists(st.integers(0, 127), min_size=1, max_size=200))
    def test_occupancy_never_exceeds_capacity(self, blocks):
        cache = self._cache(sets=4, ways=2)
        for block in blocks:
            cache.access(block, 0, 0, False)
        assert cache.occupancy <= 8
        for cache_set in cache.sets:
            assert cache_set.occupancy <= 2


class TestDeferredLRUSets:
    """A plain-LRU cache builds its sets on first use; others at once."""

    GEOMETRY = CacheGeometry(size_bytes=8 * 2 * 64, block_bytes=64, ways=2)

    def _recording(self, policy_cls):
        calls = []

        def factory(ways, set_index):
            calls.append(set_index)
            return policy_cls(ways)

        return factory, calls

    def test_lru_sets_wait_for_first_access(self):
        factory, calls = self._recording(LRUPolicy)
        cache = SetAssociativeCache(self.GEOMETRY, factory, "lazy")
        assert cache._plain_lru
        assert not isinstance(cache.sets, list) and calls == [0]
        assert not cache.access(5, 0, 0, False)
        assert isinstance(cache.sets, list) and calls == list(range(8))
        assert cache.access(5, 0, 0, False)

    @pytest.mark.parametrize("first_use", ["index", "iterate", "len", "probe"])
    def test_every_reader_builds_the_same_sets(self, first_use):
        cache = SetAssociativeCache(self.GEOMETRY, lru_factory(), "lazy")
        if first_use == "index":
            first = cache.sets[3]
        elif first_use == "iterate":
            first = list(cache.sets)[3]
        elif first_use == "len":
            assert len(cache.sets) == 8
            first = cache.sets[3]
        else:
            assert not cache.probe(3)
            first = cache.sets[3]
        assert cache.build_sets() is cache.sets
        assert cache.sets[3] is first
        assert [s.occupancy for s in cache.sets] == [0] * 8
        assert all(type(s.policy) is LRUPolicy for s in cache.sets)

    def test_build_is_idempotent_through_an_old_reference(self):
        cache = SetAssociativeCache(self.GEOMETRY, lru_factory(), "lazy")
        unbuilt = cache.sets
        built = cache.build_sets()
        assert unbuilt[2] is built[2] and cache.build_sets() is built

    def test_other_policies_build_every_set_at_construction(self):
        from repro.cache.replacement.basic import FIFOPolicy

        factory, calls = self._recording(FIFOPolicy)
        cache = SetAssociativeCache(self.GEOMETRY, factory, "eager")
        assert not cache._plain_lru
        assert isinstance(cache.sets, list) and calls == list(range(8))


class TestPrivateHierarchy:
    def _parts(self):
        l1 = SetAssociativeCache(
            CacheGeometry(size_bytes=2 * 64, block_bytes=64, ways=1), lru_factory(), "l1"
        )
        l2 = SetAssociativeCache(
            CacheGeometry(size_bytes=8 * 64, block_bytes=64, ways=2), lru_factory(), "l2"
        )
        llc = SetAssociativeCache(
            CacheGeometry(size_bytes=32 * 64, block_bytes=64, ways=4), lru_factory(), "llc"
        )
        return PrivateHierarchy(l1, l2, core_id=0), llc

    def test_first_access_goes_to_memory(self):
        hierarchy, llc = self._parts()
        assert hierarchy.access(0, 0, False, llc) == LEVEL_MEMORY

    def test_second_access_hits_l1(self):
        hierarchy, llc = self._parts()
        hierarchy.access(0, 0, False, llc)
        assert hierarchy.access(0, 0, False, llc) == LEVEL_L1

    def test_l1_conflict_hits_l2(self):
        hierarchy, llc = self._parts()
        hierarchy.access(0, 0, False, llc)
        hierarchy.access(2, 0, False, llc)  # same L1 set (2 sets), evicts 0 from L1
        assert hierarchy.access(0, 0, False, llc) == LEVEL_L2

    def test_llc_catches_l2_victims(self):
        hierarchy, llc = self._parts()
        # L2 has 4 sets x 2 ways; blocks 0,4,8 collide in L2 set 0.
        for block in (0, 4, 8):
            hierarchy.access(block, 0, False, llc)
        assert hierarchy.access(0, 0, False, llc) == LEVEL_LLC
