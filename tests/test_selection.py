"""Tests for the PC selection algorithms."""

from __future__ import annotations

import numpy as np

from repro.nucache.nextuse import EpochProfile
from repro.nucache.selection import (
    all_select,
    evaluate_subset,
    greedy_select,
    oracle_select,
    topk_select,
)


def profile_from(events, slots, evictions=None):
    return EpochProfile(
        slots,
        [pc for pc, _deltas in events],
        [deltas for _pc, deltas in events],
        evictions or [0] * slots,
        sample_period=1,
    )


def capturable(pc, slots, own=1):
    """An event trivially capturable when only its own PC is selected."""
    deltas = [0] * slots
    deltas[pc] = own
    return (pc, deltas)


class TestEvaluateSubset:
    def test_counts_captured(self):
        profile = profile_from([capturable(0, 2), capturable(1, 2)], 2)
        assert evaluate_subset(profile, [0], 10) == 1
        assert evaluate_subset(profile, [0, 1], 10) == 2


class TestGreedySelect:
    def test_selects_obviously_good_pc(self):
        profile = profile_from([capturable(0, 3)] * 5, 3)
        assert greedy_select(profile, deli_capacity=10, max_selected=2) == {0}

    def test_empty_profile_selects_nothing(self):
        profile = profile_from([], 3)
        assert greedy_select(profile, 10, 2) == frozenset()

    def test_rejects_uncapturable_pc(self):
        # PC 1's reuses are far beyond capacity.
        events = [capturable(0, 2)] * 5 + [(1, [0, 1000])] * 50
        profile = profile_from(events, 2)
        assert greedy_select(profile, deli_capacity=10, max_selected=2) == {0}

    def test_respects_max_selected(self):
        events = [capturable(pc, 4) for pc in range(4)] * 3
        profile = profile_from(events, 4)
        selected = greedy_select(profile, deli_capacity=100, max_selected=2)
        assert len(selected) == 2

    def test_mutual_exclusion_picks_the_bigger(self):
        # Selecting both PCs pushes distances beyond capacity; PC 1 has
        # more events so greedy must choose it alone.
        events = [(0, [8, 8]) for _ in range(3)] + [(1, [8, 8]) for _ in range(5)]
        profile = profile_from(events, 2)
        assert greedy_select(profile, deli_capacity=10, max_selected=2) == {1}

    def test_zero_max_selected(self):
        profile = profile_from([capturable(0, 2)], 2)
        assert greedy_select(profile, 10, 0) == frozenset()

    def test_matches_oracle_on_small_pools(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            events = []
            slots = 4
            for _ in range(30):
                pc = int(rng.integers(0, slots))
                deltas = rng.integers(0, 6, size=slots).tolist()
                events.append((pc, deltas))
            profile = profile_from(events, slots)
            greedy = greedy_select(profile, deli_capacity=8, max_selected=3)
            oracle = oracle_select(profile, deli_capacity=8, max_selected=3)
            greedy_hits = evaluate_subset(profile, sorted(greedy), 8)
            oracle_hits = evaluate_subset(profile, sorted(oracle), 8)
            # Greedy is near-optimal on these small random instances.
            assert greedy_hits >= 0.7 * oracle_hits


class TestOracleSelect:
    def test_finds_exact_optimum(self):
        # The optimum requires skipping the most-evicting PC.
        events = [capturable(0, 3)] * 3 + [(2, [0, 0, 500])] * 10
        profile = profile_from(events, 3, evictions=[10, 0, 500])
        assert oracle_select(profile, deli_capacity=10, max_selected=2) == {0}

    def test_empty_profile(self):
        assert oracle_select(profile_from([], 3), 10, 2) == frozenset()

    def test_pairs_better_than_singles(self):
        # Two PCs capturable together (small mutual distances).
        events = [(0, [1, 1, 0])] * 4 + [(1, [1, 1, 0])] * 4
        profile = profile_from(events, 3)
        assert oracle_select(profile, deli_capacity=10, max_selected=2) == {0, 1}


class TestTopkSelect:
    def test_picks_biggest_evictors(self):
        profile = profile_from([], 3, evictions=[5, 100, 50])
        assert topk_select(profile, 10, 2) == {1, 2}

    def test_skips_zero_evictors(self):
        profile = profile_from([capturable(0, 3)], 3, evictions=[5, 0, 0])
        assert topk_select(profile, 10, 3) == {0}

    def test_blind_to_capturability(self):
        # The canonical failure: the top evictor's reuses are hopeless,
        # topk picks it anyway.
        events = [capturable(0, 2)] * 5 + [(1, [0, 10_000])] * 2
        profile = profile_from(events, 2, evictions=[10, 10_000])
        assert 1 in topk_select(profile, deli_capacity=10, max_selected=1)
        assert greedy_select(profile, deli_capacity=10, max_selected=1) == {0}


class TestAllSelect:
    def test_selects_every_active_candidate(self):
        profile = profile_from([], 4, evictions=[3, 0, 7, 1])
        assert all_select(profile, 10, 2) == {0, 2, 3}

    def test_ignores_max_selected(self):
        profile = profile_from([], 4, evictions=[1, 1, 1, 1])
        assert len(all_select(profile, 10, 1)) == 4

    def test_empty_on_no_traffic(self):
        profile = profile_from([], 3, evictions=[0, 0, 0])
        assert all_select(profile, 10, 3) == frozenset()
