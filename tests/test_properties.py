"""Hypothesis property tests on the core invariants.

These complement the per-module tests with randomized checks of the
structural invariants that the simulator's correctness rests on:
LRU inclusion, UCP quota conservation, NUcache residency accounting and
the exactness of the Next-Use capture model.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cache import SetAssociativeCache
from repro.cache.replacement.basic import lru_factory
from repro.common.config import CacheGeometry, NUcacheConfig
from repro.nucache.nextuse import EpochProfile
from repro.nucache.organization import NUCache
from repro.partition.lookahead import lookahead_partition
from repro.partition.ucp import UCPCache
from repro.partition.umon import UtilityMonitor


def _geometry(sets, ways):
    return CacheGeometry(size_bytes=sets * ways * 64, block_bytes=64, ways=ways)


blocks_strategy = st.lists(st.integers(0, 127), min_size=1, max_size=400)


class TestLRUInclusion:
    @settings(max_examples=25, deadline=None)
    @given(blocks_strategy)
    def test_bigger_lru_cache_hits_superset(self, blocks):
        """LRU stack property: every hit in a k-way cache is a hit in a
        (k+m)-way cache over the same accesses."""
        small = SetAssociativeCache(_geometry(4, 2), lru_factory(), "small")
        large = SetAssociativeCache(_geometry(4, 4), lru_factory(), "large")
        for block in blocks:
            small_hit = small.access(block, 0, 0, False)
            large_hit = large.access(block, 0, 0, False)
            assert large_hit or not small_hit

    @settings(max_examples=25, deadline=None)
    @given(blocks_strategy)
    def test_umon_curve_monotone_and_bounded(self, blocks):
        monitor = UtilityMonitor(_geometry(4, 8), sample_period=1)
        for block in blocks:
            monitor.observe(block)
        curve = monitor.utility_curve()
        assert curve[0] == 0
        assert all(a <= b for a, b in zip(curve, curve[1:]))
        assert curve[-1] + monitor.misses == len(blocks)


class TestLookaheadProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(0, 100), min_size=9, max_size=9),
            min_size=2,
            max_size=4,
        )
    )
    def test_allocation_sums_and_bounds(self, raw_curves):
        curves = [[0] + sorted(row[1:]) for row in raw_curves]
        total_ways = 8
        allocation = lookahead_partition(curves, total_ways, min_ways=1)
        assert sum(allocation) == total_ways
        assert all(ways >= 1 for ways in allocation)


class TestUCPProperties:
    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 63)),
                    min_size=1, max_size=300))
    def test_occupancy_conserved(self, accesses):
        cache = UCPCache(_geometry(4, 4), num_cores=2, repartition_period=50)
        for core, block in accesses:
            cache.access(block, core, 0, False)
        occupancy = cache.occupancy_by_core()
        assert sum(occupancy.values()) <= 16
        for ucp_set in cache.sets:
            assert sum(ucp_set.owner_count) == len(ucp_set.tag_to_way)
            assert sorted(ucp_set.stack) == sorted(ucp_set.tag_to_way.values())


class TestNUcacheProperties:
    def _cache(self):
        config = NUcacheConfig(
            deli_ways=2, num_candidate_pcs=4, epoch_misses=50,
            history_capacity=64, max_selected_pcs=2,
        )
        return NUCache(_geometry(4, 4), config)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 63), st.integers(0, 3)),
                    min_size=1, max_size=400))
    def test_residency_invariants(self, accesses):
        cache = self._cache()
        for block, pc in accesses:
            cache.access(block, 0, pc, False)
        for nu_set in cache.sets:
            # Main structures consistent.
            valid = set(range(cache.main_ways)) - set(nu_set.free)
            assert len(valid) == len(nu_set.tag_to_way)
            for tag, way in nu_set.tag_to_way.items():
                assert way in valid
                assert nu_set.tags[way] == tag
            # A tag is never in both MainWays and DeliWays.
            assert not set(nu_set.tag_to_way) & set(nu_set.deli)
            # DeliWays never exceed their capacity.
            assert len(nu_set.deli) <= cache.deli_ways

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 63), st.integers(0, 3)),
                    min_size=1, max_size=400))
    def test_accesses_conserved(self, accesses):
        cache = self._cache()
        for block, pc in accesses:
            cache.access(block, 0, pc, False)
        assert cache.stats.total.accesses == len(accesses)
        assert cache.deli_hits <= cache.stats.total.hits


class TestCaptureModelExactness:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 2), st.lists(st.integers(0, 20),
                                                  min_size=3, max_size=3)),
            min_size=1, max_size=40,
        ),
        st.integers(1, 40),
    )
    def test_captured_hits_matches_bruteforce(self, raw_events, capacity):
        """The vectorized capture count equals the brute-force count."""
        profile = EpochProfile(
            3,
            [pc for pc, _deltas in raw_events],
            [deltas for _pc, deltas in raw_events],
            [0, 0, 0],
            sample_period=1,
        )
        for mask_bits in range(1, 8):
            mask = np.array([(mask_bits >> bit) & 1 == 1 for bit in range(3)])
            expected = sum(
                1
                for pc, deltas in raw_events
                if mask[pc]
                and sum(d for d, m in zip(deltas, mask) if m) <= capacity
            )
            assert profile.captured_hits(mask, capacity) == expected
