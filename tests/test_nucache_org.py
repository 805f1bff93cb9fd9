"""Tests for the NUcache way organization (MainWays + DeliWays)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cache import SetAssociativeCache
from repro.cache.replacement.basic import lru_factory
from repro.common.config import CacheGeometry, NUcacheConfig
from repro.common.errors import ConfigError
from repro.nucache.organization import NUCache

from conftest import ReferenceLRUCache


def _geometry(sets=4, ways=4):
    return CacheGeometry(size_bytes=sets * ways * 64, block_bytes=64, ways=ways)


def _nucache(sets=4, ways=4, deli=2, **overrides):
    defaults = dict(
        deli_ways=deli,
        num_candidate_pcs=4,
        epoch_misses=20,
        history_capacity=64,
        max_selected_pcs=2,
    )
    defaults.update(overrides)
    return NUCache(_geometry(sets, ways), NUcacheConfig(**defaults))


def _force_selection(cache, core, pc):
    """Make (core, pc) a selected candidate via controller internals."""
    controller = cache.controller
    controller._slot_of = {(core, pc): 0}
    controller._slot_keys = [(core, pc)]
    controller._selected = frozenset([0])
    controller.profiler.begin_epoch(1)


class TestBasicBehaviour:
    def test_miss_then_hit(self):
        cache = _nucache()
        assert not cache.access(0, 0, 0, False)
        assert cache.access(0, 0, 0, False)

    def test_rejects_deli_equal_ways(self):
        with pytest.raises(ConfigError):
            NUCache(_geometry(ways=4), NUcacheConfig(deli_ways=4, num_candidate_pcs=4,
                                                     max_selected_pcs=2))

    def test_unselected_victims_are_evicted(self):
        cache = _nucache(sets=1, ways=4, deli=2)  # 2 MainWays
        cache.access(0, 0, 0, False)
        cache.access(1, 0, 0, False)
        cache.access(2, 0, 0, False)  # evicts 0; nothing selected
        assert not cache.access(0, 0, 0, False)
        assert cache.stats.total.evictions >= 1

    def test_selected_victims_enter_deliways(self):
        cache = _nucache(sets=1, ways=4, deli=2)
        _force_selection(cache, 0, 0x40)
        cache.access(0, 0, 0x40, False)
        cache.access(1, 0, 0x99, False)
        cache.access(2, 0, 0x99, False)  # evicts 0 -> retained
        assert cache.retentions == 1
        assert cache.access(0, 0, 0x40, False)  # deli hit
        assert cache.deli_hits == 1

    def test_deli_hit_promotes_to_main(self):
        cache = _nucache(sets=1, ways=4, deli=2)
        _force_selection(cache, 0, 0x40)
        cache.access(0, 0, 0x40, False)
        cache.access(1, 0, 0x99, False)
        cache.access(2, 0, 0x99, False)  # 0 -> deli
        cache.access(0, 0, 0x40, False)  # deli hit -> promote
        nu_set = cache.set_of(0)
        assert 0 in nu_set.tag_to_way
        assert 0 not in nu_set.deli

    def test_deli_fifo_overflow_evicts_oldest(self):
        cache = _nucache(sets=1, ways=4, deli=2)
        _force_selection(cache, 0, 0x40)
        # Bring in three selected lines and push each out of main.
        for block in (0, 1, 2):
            cache.access(block, 0, 0x40, False)
        # main has 2 ways: 0 was already evicted into deli by block 2.
        cache.access(3, 0, 0x40, False)  # evicts 1 -> deli [0, 1]
        cache.access(4, 0, 0x40, False)  # evicts 2 -> deli [1, 2], 0 out
        assert not cache.access(0, 0, 0x40, False)

    def test_dirty_retained_line_writes_back_on_deli_eviction(self):
        cache = _nucache(sets=1, ways=4, deli=1)  # 3 MainWays + 1 DeliWay
        _force_selection(cache, 0, 0x40)
        cache.access(0, 0, 0x40, True)  # dirty
        cache.access(1, 0, 0x40, False)
        cache.access(2, 0, 0x40, False)
        cache.access(3, 0, 0x40, False)  # evicts 0 -> deli (dirty)
        cache.access(4, 0, 0x40, False)  # evicts 1 -> deli; 0 pushed out
        assert cache.stats.total.writebacks >= 1

    def test_write_hit_in_deli_marks_dirty(self):
        cache = _nucache(sets=1, ways=4, deli=2, deli_replacement="lru")
        _force_selection(cache, 0, 0x40)
        cache.access(0, 0, 0x40, False)
        cache.access(1, 0, 0x99, False)
        cache.access(2, 0, 0x99, False)  # 0 -> deli
        assert cache.access(0, 0, 0x40, True)  # write hit in deli
        nu_set = cache.set_of(0)
        assert nu_set.deli[0].dirty

    def test_occupancy_counts_both_structures(self):
        cache = _nucache(sets=1, ways=4, deli=2)
        _force_selection(cache, 0, 0x40)
        for block in (0, 1, 2):
            cache.access(block, 0, 0x40, False)
        assert cache.occupancy == 3  # 2 main + 1 deli

    def test_resident_blocks_reports_location(self):
        cache = _nucache(sets=1, ways=4, deli=2)
        _force_selection(cache, 0, 0x40)
        for block in (0, 1, 2):
            cache.access(block, 0, 0x40, False)
        locations = dict(cache.resident_blocks())
        assert locations[0] is True  # in deli
        assert locations[1] is False and locations[2] is False

    def test_occupancy_by_core(self):
        cache = _nucache(sets=2, ways=4, deli=2)
        cache.access(0, 0, 0, False)
        cache.access(1, 1, 0, False)
        assert cache.occupancy_by_core() == {0: 1, 1: 1}


class TestDeliLRUMode:
    def test_deli_hit_refreshes_instead_of_promoting(self):
        cache = _nucache(sets=1, ways=4, deli=2, deli_replacement="lru")
        _force_selection(cache, 0, 0x40)
        cache.access(0, 0, 0x40, False)
        cache.access(1, 0, 0x99, False)
        cache.access(2, 0, 0x99, False)  # 0 -> deli
        assert cache.access(0, 0, 0x40, False)  # hit, stays in deli
        nu_set = cache.set_of(0)
        assert 0 in nu_set.deli
        assert 0 not in nu_set.tag_to_way


class TestLRUEquivalence:
    """With deli_ways=0 NUcache must behave exactly like an LRU cache."""

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(0, 63), min_size=1, max_size=300))
    def test_matches_lru_with_zero_deliways(self, blocks):
        nucache = _nucache(sets=4, ways=4, deli=0)
        reference = ReferenceLRUCache(num_sets=4, ways=4)
        for block in blocks:
            assert nucache.access(block, 0, block % 7, False) == reference.access(block)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(0, 63), min_size=1, max_size=300))
    def test_nothing_selected_matches_mainways_lru(self, blocks):
        # With no PCs ever selected, NUcache is an M-way LRU cache.
        nucache = _nucache(sets=4, ways=4, deli=2, epoch_misses=10**9)
        reference = ReferenceLRUCache(num_sets=4, ways=2)
        for block in blocks:
            assert nucache.access(block, 0, 0, False) == reference.access(block)


class TestEpochIntegration:
    def test_selection_emerges_from_traffic(self):
        """A thrash-plus-stream pattern must select the loop PC online."""
        cache = _nucache(sets=4, ways=4, deli=2, epoch_misses=200,
                         history_capacity=256)
        loop_blocks = list(range(12))  # 3 lines/set: thrashes 2 MainWays
        stream_block = 1000
        for _ in range(3000):
            for block in loop_blocks:
                cache.access(block, 0, 0xA, False)
                cache.access(stream_block, 0, 0xB, False)
                stream_block += 1
            if (0, 0xA) in cache.controller.selected_keys():
                break
        assert (0, 0xA) in cache.controller.selected_keys()
        assert (0, 0xB) not in cache.controller.selected_keys()

    def test_remap_clears_stale_slots(self):
        cache = _nucache(sets=1, ways=4, deli=2)
        _force_selection(cache, 0, 0x40)
        cache.access(0, 0, 0x40, False)
        cache.controller.rotate(cache._remap_slots)
        nu_set = cache.set_of(0)
        way = nu_set.tag_to_way[0]
        # (0, 0x40) missed once; it stays a candidate, so the slot must
        # be remapped to a valid slot, not left stale.
        slot = cache.controller.slot_of(0, 0x40)
        assert nu_set.slots[way] == slot

    def test_split_address_roundtrip(self):
        cache = _nucache(sets=4, ways=4)
        for block in (0, 3, 4, 17):
            index, tag = cache.split_address(block)
            assert (tag << 2) | index == block

    def test_selection_report_empty_initially(self):
        assert _nucache().selection_report() == []
