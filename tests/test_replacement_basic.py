"""Tests for the basic replacement policies."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cache.replacement.basic import (
    FIFOPolicy,
    LIPPolicy,
    LRUPolicy,
    NRUPolicy,
    RandomPolicy,
    TreePLRUPolicy,
)


class TestLRU:
    def test_victim_is_least_recent(self):
        policy = LRUPolicy(4)
        for way in (0, 1, 2, 3):
            policy.insert(way, core=0)
        # 0 is oldest
        assert policy.victim() == 0

    def test_touch_promotes(self):
        policy = LRUPolicy(4)
        for way in (0, 1, 2, 3):
            policy.insert(way, core=0)
        policy.touch(0, core=0)
        assert policy.victim() == 1

    def test_rejects_zero_ways(self):
        with pytest.raises(ValueError):
            LRUPolicy(0)

    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 3)), max_size=60))
    def test_stack_is_permutation(self, events):
        policy = LRUPolicy(4)
        for is_touch, way in events:
            if is_touch:
                policy.touch(way, core=0)
            else:
                policy.insert(way, core=0)
        assert sorted(policy.stack) == [0, 1, 2, 3]
        assert 0 <= policy.victim() < 4


class TestFIFO:
    def test_hits_do_not_promote(self):
        policy = FIFOPolicy(3)
        for way in (0, 1, 2):
            policy.insert(way, core=0)
        policy.touch(0, core=0)
        assert policy.victim() == 0

    def test_insert_resets_age(self):
        policy = FIFOPolicy(3)
        for way in (0, 1, 2):
            policy.insert(way, core=0)
        policy.insert(0, core=0)  # refilled: now newest
        assert policy.victim() == 1


class TestLIP:
    def test_inserts_at_lru(self):
        policy = LIPPolicy(4)
        # initial stack [0,1,2,3]; inserting way 0 sends it to the bottom
        policy.insert(0, core=0)
        assert policy.victim() == 0

    def test_touch_rescues(self):
        policy = LIPPolicy(4)
        policy.insert(0, core=0)
        policy.touch(0, core=0)
        assert policy.victim() != 0


class TestRandom:
    def test_victims_in_range(self):
        policy = RandomPolicy(4, seed=42)
        for _ in range(100):
            assert 0 <= policy.victim() < 4

    def test_deterministic_given_seed(self):
        a = [RandomPolicy(8, seed=3).victim() for _ in range(20)]
        b = [RandomPolicy(8, seed=3).victim() for _ in range(20)]
        # Regenerate from fresh policies each time for identical streams
        first = RandomPolicy(8, seed=3)
        second = RandomPolicy(8, seed=3)
        assert [first.victim() for _ in range(20)] == [second.victim() for _ in range(20)]

    def test_covers_all_ways_eventually(self):
        policy = RandomPolicy(4, seed=1)
        seen = {policy.victim() for _ in range(200)}
        assert seen == {0, 1, 2, 3}


class TestNRU:
    def test_victim_prefers_unreferenced(self):
        policy = NRUPolicy(4)
        policy.insert(0, core=0)
        policy.insert(1, core=0)
        assert policy.victim() == 2

    def test_all_referenced_resets(self):
        policy = NRUPolicy(2)
        policy.insert(0, core=0)
        policy.insert(1, core=0)  # saturates: resets all but way 1
        assert policy.victim() == 0


class TestTreePLRU:
    def test_requires_power_of_two(self):
        with pytest.raises(ValueError):
            TreePLRUPolicy(6)

    def test_victim_avoids_recently_touched(self):
        policy = TreePLRUPolicy(4)
        for way in range(4):
            policy.insert(way, core=0)
        policy.touch(0, core=0)
        assert policy.victim() != 0

    def test_exact_lru_for_two_ways(self):
        policy = TreePLRUPolicy(2)
        policy.insert(0, core=0)
        policy.insert(1, core=0)
        assert policy.victim() == 0
        policy.touch(0, core=0)
        assert policy.victim() == 1

    @given(st.lists(st.integers(0, 7), min_size=1, max_size=50))
    def test_victim_never_most_recent(self, touches):
        policy = TreePLRUPolicy(8)
        for way in touches:
            policy.touch(way, core=0)
        assert policy.victim() != touches[-1]

    @given(st.lists(st.integers(0, 7), max_size=50))
    def test_victim_in_range(self, touches):
        policy = TreePLRUPolicy(8)
        for way in touches:
            policy.touch(way, core=0)
        assert 0 <= policy.victim() < 8
