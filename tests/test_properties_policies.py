"""Hypothesis property tests for the predictive policies and the engine.

Complements ``test_properties.py`` with invariants of the PC-predictive
policies (SHiP, SDBP) and conservation laws of the full simulator.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cache import SetAssociativeCache
from repro.cache.replacement.deadblock import sdbp_factory
from repro.cache.replacement.ship import ship_factory
from repro.common.config import CacheGeometry, tiny_system_config
from repro.sim.engine import MulticoreEngine
from repro.sim.policies import make_llc

from conftest import make_trace


def _geometry(sets=4, ways=4):
    return CacheGeometry(size_bytes=sets * ways * 64, block_bytes=64, ways=ways)


def _resident(cache, block):
    """Whether ``block`` is in ``cache``, without touching any state."""
    return cache.set_of(block).find(cache.split_address(block)[1]) >= 0


accesses_strategy = st.lists(
    st.tuples(st.integers(0, 63), st.integers(0, 5), st.booleans()),
    min_size=1,
    max_size=300,
)


class TestPredictivePolicyInvariants:
    @settings(max_examples=20, deadline=None)
    @given(accesses_strategy)
    def test_ship_structural_consistency(self, accesses):
        cache = SetAssociativeCache(_geometry(), ship_factory(), "ship")
        for block, pc, is_write in accesses:
            cache.access(block, 0, pc, is_write)
        assert cache.occupancy <= 16
        for cache_set in cache.sets:
            for tag, way in cache_set._tag_to_way.items():
                assert cache_set.lines[way].tag == tag
                assert cache_set.lines[way].valid

    @settings(max_examples=20, deadline=None)
    @given(accesses_strategy)
    def test_ship_bypass_never_loses_hits_to_structure(self, accesses):
        """Bypassed fills must not corrupt the set: a block reported hit
        must actually be resident."""
        cache = SetAssociativeCache(_geometry(), ship_factory(bypass=True),
                                    "ship-bypass")
        for block, pc, is_write in accesses:
            hit = cache.access(block, 0, pc, is_write)
            if hit:
                assert _resident(cache, block)

    @settings(max_examples=20, deadline=None)
    @given(accesses_strategy)
    def test_sdbp_victims_always_valid_ways(self, accesses):
        cache = SetAssociativeCache(_geometry(), sdbp_factory(), "sdbp")
        for block, pc, is_write in accesses:
            cache.access(block, 0, pc, is_write)
        # Re-access everything: any reported hit must be real.
        for block, pc, _ in accesses:
            if _resident(cache, block):
                assert cache.access(block, 0, pc, False)

    @settings(max_examples=15, deadline=None)
    @given(accesses_strategy)
    def test_stats_conservation_across_policies(self, accesses):
        for policy_factory, name in (
            (ship_factory(), "ship"),
            (sdbp_factory(), "sdbp"),
        ):
            cache = SetAssociativeCache(_geometry(), policy_factory, name)
            for block, pc, is_write in accesses:
                cache.access(block, 0, pc, is_write)
            assert cache.stats.total.accesses == len(accesses)
            assert cache.stats.total.hits + cache.stats.total.misses == len(accesses)


class TestEngineConservation:
    @settings(max_examples=10, deadline=None)
    @given(
        st.lists(st.integers(0, 200), min_size=2, max_size=60),
        st.lists(st.integers(0, 200), min_size=2, max_size=60),
        st.sampled_from(["lru", "nucache", "ucp", "pipp", "ship"]),
    )
    def test_level_counts_partition_accesses(self, blocks_a, blocks_b, policy):
        config = tiny_system_config(2)
        traces = [make_trace(blocks_a, name="a"), make_trace(blocks_b, name="b")]
        engine = MulticoreEngine(traces, make_llc(policy, config), config)
        result = engine.run()
        for core_result, blocks in zip(result.cores, (blocks_a, blocks_b)):
            assert sum(core_result.level_counts.values()) == len(blocks)
            assert core_result.llc_misses <= core_result.llc_accesses
            assert core_result.cycles > 0

    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.integers(0, 100), min_size=2, max_size=80))
    def test_warmup_never_increases_measured_misses(self, blocks):
        config = tiny_system_config(1)
        cold = MulticoreEngine(
            [make_trace(blocks)], make_llc("lru", config), config,
            warmup_fraction=0.0,
        ).run()
        warm = MulticoreEngine(
            [make_trace(blocks)], make_llc("lru", config), config,
            warmup_fraction=0.5,
        ).run()
        assert warm.cores[0].llc_misses <= cold.cores[0].llc_misses
