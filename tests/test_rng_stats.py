"""Tests for repro.common.rng and repro.common.stats."""

from __future__ import annotations

import pytest

from repro.common.rng import DEFAULT_SEED, backoff_delay, derive_seed, make_rng
from repro.common.stats import AccessStats, SharedCacheStats


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a") == derive_seed(1, "a")

    def test_label_changes_seed(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_root_changes_seed(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_fits_in_63_bits(self):
        for label in ("x", "y", "a-long-label"):
            assert 0 <= derive_seed(DEFAULT_SEED, label) < 2**63


class TestMakeRng:
    def test_repeatable_streams(self):
        a = make_rng(7, "stream").integers(0, 1000, size=10)
        b = make_rng(7, "stream").integers(0, 1000, size=10)
        assert (a == b).all()

    def test_independent_streams(self):
        a = make_rng(7, "one").integers(0, 1000, size=10)
        b = make_rng(7, "two").integers(0, 1000, size=10)
        assert not (a == b).all()


class TestBackoffDelay:
    @pytest.mark.parametrize("base", [0.0, -1.0])
    def test_non_positive_base_disables_backoff(self, base):
        assert [backoff_delay(r, "site", base, 10.0) for r in (1, 2, 8)] == [0.0] * 3

    def test_delay_doubles_per_round_within_the_jitter_band(self):
        for round_no in range(1, 7):
            ceiling = 0.1 * 2 ** (round_no - 1)
            delay = backoff_delay(round_no, "site", 0.1, 100.0)
            assert 0.5 * ceiling <= delay <= ceiling

    def test_delay_never_exceeds_the_cap(self):
        for round_no in range(1, 40):
            assert backoff_delay(round_no, "site", 0.25, 2.0) <= 2.0
        assert backoff_delay(39, "site", 0.25, 2.0) >= 1.0

    def test_one_site_backs_off_the_same_every_run(self):
        delays = [backoff_delay(3, "retry:job", 0.1, 5.0) for _ in range(3)]
        assert len(set(delays)) == 1
        assert backoff_delay(3, "retry:job", 0.1, 5.0, seed=1) != delays[0]

    def test_distinct_sites_do_not_synchronize(self):
        delays = {backoff_delay(2, f"retry:{site}", 0.1, 5.0) for site in range(8)}
        assert len(delays) == 8


class TestAccessStats:
    def test_rates(self):
        stats = AccessStats(hits=3, misses=1)
        assert stats.accesses == 4
        assert stats.hit_rate == 0.75
        assert stats.miss_rate == 0.25

    def test_empty_rates(self):
        stats = AccessStats()
        assert stats.hit_rate == 0.0
        assert stats.miss_rate == 0.0

    def test_merge(self):
        a = AccessStats(hits=1, misses=2, writebacks=3, evictions=4)
        b = AccessStats(hits=10, misses=20, writebacks=30, evictions=40)
        a.merge(b)
        assert (a.hits, a.misses, a.writebacks, a.evictions) == (11, 22, 33, 44)

    def test_snapshot_is_independent(self):
        stats = AccessStats(hits=1)
        snap = stats.snapshot()
        stats.hits += 5
        assert snap.hits == 1


class TestSharedCacheStats:
    def test_record_splits_by_core(self):
        stats = SharedCacheStats()
        stats.record(0, hit=True)
        stats.record(0, hit=False)
        stats.record(1, hit=True)
        assert stats.total.hits == 2
        assert stats.total.misses == 1
        assert stats.core_stats(0).hits == 1
        assert stats.core_stats(0).misses == 1
        assert stats.core_stats(1).hits == 1

    def test_unknown_core_returns_zeros(self):
        stats = SharedCacheStats()
        assert stats.core_stats(9).accesses == 0
