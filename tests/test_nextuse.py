"""Tests for the Next-Use profiler and epoch profiles."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.invariants import check_profiler
from repro.check.oracle import RefNextUseProfiler
from repro.nucache.nextuse import EpochProfile, NextUseProfiler


def _profiler(capacity=16, sample_period=1, slots=4):
    profiler = NextUseProfiler(capacity, sample_period)
    profiler.begin_epoch(slots)
    return profiler


class TestNextUseProfiler:
    def test_reuse_records_event(self):
        profiler = _profiler()
        profiler.on_eviction(0, block_addr=100, pc_slot=1)
        assert profiler.on_reuse(0, block_addr=100)
        profile = profiler.finish_epoch()
        assert profile.event_pc.tolist() == [1]
        assert profile.event_deltas.tolist() == [[0, 0, 0, 0]]

    def test_distance_counts_candidate_evictions(self):
        profiler = _profiler()
        profiler.on_eviction(0, 100, pc_slot=0)
        profiler.on_eviction(0, 101, pc_slot=1)
        profiler.on_eviction(0, 102, pc_slot=1)
        profiler.on_eviction(0, 103, pc_slot=2)
        assert profiler.on_reuse(0, 100)
        assert profiler.finish_epoch().event_deltas[0].tolist() == [0, 2, 1, 0]

    def test_own_eviction_not_counted(self):
        profiler = _profiler()
        profiler.on_eviction(0, 100, pc_slot=2)
        assert profiler.on_reuse(0, 100)
        assert profiler.finish_epoch().event_deltas[0, 2] == 0

    def test_unknown_block_returns_none(self):
        profiler = _profiler()
        assert profiler.on_reuse(0, 999) is False
        assert profiler.finish_epoch().num_events == 0

    def test_reuse_consumes_entry(self):
        profiler = _profiler()
        profiler.on_eviction(0, 100, pc_slot=0)
        assert profiler.on_reuse(0, 100)
        assert not profiler.on_reuse(0, 100)

    def test_non_candidate_evictions_invisible(self):
        profiler = _profiler()
        profiler.on_eviction(0, 100, pc_slot=-1)
        assert not profiler.on_reuse(0, 100)
        assert profiler.pending_evictions == 0

    def test_history_capacity_evicts_oldest(self):
        profiler = _profiler(capacity=2)
        profiler.on_eviction(0, 100, pc_slot=0)
        profiler.on_eviction(0, 101, pc_slot=0)
        profiler.on_eviction(0, 102, pc_slot=0)
        assert not profiler.on_reuse(0, 100)  # fell off the FIFO
        assert profiler.on_reuse(0, 102)

    def test_re_eviction_refreshes_entry(self):
        profiler = _profiler(capacity=2)
        profiler.on_eviction(0, 100, pc_slot=0)
        profiler.on_eviction(0, 101, pc_slot=0)
        profiler.on_eviction(0, 100, pc_slot=1)  # refreshed, newest
        profiler.on_eviction(0, 102, pc_slot=0)  # pushes out 101
        assert not profiler.on_reuse(0, 101)
        assert profiler.on_reuse(0, 100)
        profile = profiler.finish_epoch()
        assert profile.event_pc.tolist() == [1]
        assert profile.event_deltas.tolist() == [[1, 0, 0, 0]]

    def test_sampling_ignores_unsampled_sets(self):
        profiler = _profiler(sample_period=4)
        profiler.on_eviction(1, 100, pc_slot=0)  # set 1: unsampled
        assert not profiler.on_reuse(1, 100)
        profiler.on_eviction(4, 200, pc_slot=0)  # set 4: sampled
        assert profiler.on_reuse(4, 200)

    def test_begin_epoch_resets(self):
        profiler = _profiler()
        profiler.on_eviction(0, 100, pc_slot=0)
        profiler.begin_epoch(4)
        assert not profiler.on_reuse(0, 100)
        assert profiler.finish_epoch().num_events == 0

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            NextUseProfiler(0)
        with pytest.raises(ValueError):
            NextUseProfiler(4, sample_period=0)


#: One epoch of profiler traffic: the candidate slot count and a list of
#: ``(block, slot)`` evictions (``slot`` is ``None`` for a reuse probe).
_epochs = st.lists(
    st.tuples(
        st.integers(0, 4),
        st.lists(
            st.tuples(st.integers(0, 11), st.none() | st.integers(-1, 3)),
            max_size=60,
        ),
    ),
    min_size=1,
    max_size=4,
)


class TestMatchesSnapshotReference:
    @settings(max_examples=200, deadline=None)
    @given(_epochs, st.integers(1, 6), st.integers(1, 3))
    def test_epoch_profiles_match(self, epochs, capacity, sample_period):
        """The event log yields the snapshot algorithm's epoch profiles.

        Twelve blocks over four sets with a history of at most six
        entries exercise capacity pops, re-evictions, non-candidate and
        unsampled evictions, and epoch resets.
        """
        profiler = NextUseProfiler(capacity, sample_period)
        reference = RefNextUseProfiler(capacity, sample_period)
        for num_slots, operations in epochs:
            profiler.begin_epoch(num_slots)
            reference.begin_epoch(num_slots)
            for block, slot in operations:
                set_index = block % 4
                if slot is None:
                    assert profiler.on_reuse(set_index, block) == reference.on_reuse(
                        set_index, block
                    )
                else:
                    slot = slot if slot < num_slots else -1
                    profiler.on_eviction(set_index, block, slot)
                    reference.on_eviction(set_index, block, slot)
            assert check_profiler(profiler) == []
            profile = profiler.finish_epoch()
            expected = reference.finish_epoch()
            assert profile.event_pc.tolist() == expected.event_pc.tolist()
            assert profile.event_deltas.tolist() == expected.event_deltas.tolist()
            assert profile.evictions_per_slot == expected.evictions_per_slot
            for mask_bits in range(2 ** num_slots):
                mask = np.array([(mask_bits >> bit) & 1 == 1 for bit in range(num_slots)])
                for deli_capacity in (1, 4, 12):
                    assert profile.captured_hits(mask, deli_capacity) == (
                        expected.captured_hits(mask, deli_capacity)
                    )


class TestEpochProfile:
    def _profile(self, events, slots=3, evictions=None, sample_period=1):
        return EpochProfile(
            slots,
            [pc for pc, _deltas in events],
            [deltas for _pc, deltas in events],
            evictions or [0] * slots,
            sample_period,
        )

    def test_captured_hits_within_capacity(self):
        profile = self._profile([(0, (5, 0, 0)), (0, (20, 0, 0))])
        mask = np.array([True, False, False])
        assert profile.captured_hits(mask, deli_capacity=10) == 1
        assert profile.captured_hits(mask, deli_capacity=30) == 2

    def test_only_selected_pcs_counted(self):
        profile = self._profile([(0, (0, 0, 0)), (1, (0, 0, 0))])
        mask = np.array([True, False, False])
        assert profile.captured_hits(mask, deli_capacity=10) == 1

    def test_distance_restricted_to_selected(self):
        # Distance vs slot 0 alone is 5; including slot 1 it is 50.
        profile = self._profile([(0, (5, 45, 0))])
        only_zero = np.array([True, False, False])
        both = np.array([True, True, False])
        assert profile.captured_hits(only_zero, 10) == 1
        assert profile.captured_hits(both, 10) == 0

    def test_empty_profile(self):
        profile = self._profile([])
        assert profile.num_events == 0
        assert profile.captured_hits(np.array([True, True, True]), 100) == 0

    def test_sampled_capacity_scaling(self):
        profile = self._profile([(0, (5, 0, 0))], sample_period=4)
        mask = np.array([True, False, False])
        # Effective capacity 16//4 = 4 < 5: not captured.
        assert profile.captured_hits(mask, deli_capacity=16) == 0
        assert profile.captured_hits(mask, deli_capacity=24) == 1

    def test_subsampling_scales_counts(self):
        profile = EpochProfile(
            3, [0] * 100, [(0, 0, 0)] * 100, [0, 0, 0], 1, max_selection_events=10
        )
        mask = np.array([True, False, False])
        estimate = profile.captured_hits(mask, 10)
        assert 80 <= estimate <= 120  # 100 +- stride granularity

    def test_rejects_bad_max_events(self):
        with pytest.raises(ValueError):
            EpochProfile(1, [], [], [0], 1, max_selection_events=0)

    def test_distance_histogram(self):
        profile = self._profile(
            [(0, (1, 0, 0)), (0, (10, 0, 0)), (1, (100, 0, 0))]
        )
        histograms = profile.distance_histogram([5, 50])
        assert histograms[0].tolist() == [1, 1, 0]
        assert histograms[1].tolist() == [0, 0, 1]
