"""Tests for the dead-block-prediction policy."""

from __future__ import annotations

import pytest

from repro.cache.cache import SetAssociativeCache
from repro.cache.replacement.deadblock import (
    DeadBlockPredictor,
    SDBPPolicy,
    sdbp_factory,
)
from repro.common.config import CacheGeometry


class TestPredictor:
    def test_starts_live(self):
        predictor = DeadBlockPredictor(entries=8)
        assert not predictor.predicts_dead(0)

    def test_votes_to_dead(self):
        predictor = DeadBlockPredictor(entries=8, dead_threshold=2)
        predictor.train_dead(3)
        assert not predictor.predicts_dead(3)
        predictor.train_dead(3)
        assert predictor.predicts_dead(3)

    def test_live_votes_recover(self):
        predictor = DeadBlockPredictor(entries=8, dead_threshold=2)
        for _ in range(3):
            predictor.train_dead(3)
        predictor.train_live(3)
        predictor.train_live(3)
        assert not predictor.predicts_dead(3)

    def test_counters_saturate(self):
        # Saturation at 3 means two live votes leave the counter at 1,
        # below the default threshold of 2 — i.e. ten dead votes weigh
        # no more than three.
        predictor = DeadBlockPredictor(entries=8, counter_bits=2)
        for _ in range(10):
            predictor.train_dead(1)
        for _ in range(2):
            predictor.train_live(1)
        assert not predictor.predicts_dead(1)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            DeadBlockPredictor(entries=0)
        with pytest.raises(ValueError):
            DeadBlockPredictor(dead_threshold=0)
        with pytest.raises(ValueError):
            DeadBlockPredictor(counter_bits=2, dead_threshold=4)


class TestSDBPPolicy:
    def _policy(self, ways=4, threshold=2):
        predictor = DeadBlockPredictor(entries=64, dead_threshold=threshold)
        return SDBPPolicy(ways, predictor), predictor

    def test_falls_back_to_lru(self):
        policy, _ = self._policy()
        for way in (0, 1, 2, 3):
            policy.insert(way, core=0, pc=0x10)
        assert policy.victim() == 0  # nothing predicted dead yet

    def test_predicted_dead_way_preferred(self):
        policy, predictor = self._policy()
        signature = predictor.index_of(0, 0xDEAD)
        for _ in range(3):
            predictor.train_dead(signature)
        for way in (0, 1, 2):
            policy.insert(way, core=0, pc=0x10)
        policy.insert(3, core=0, pc=0xDEAD)  # newest but predicted dead
        assert policy.victim() == 3

    def test_eviction_trains_dead(self):
        policy, predictor = self._policy()
        signature = predictor.index_of(0, 0x10)
        policy.insert(0, core=0, pc=0x10)
        policy.insert(0, core=0, pc=0x20)  # evicts the 0x10 line
        policy.insert(0, core=0, pc=0x10)
        policy.insert(0, core=0, pc=0x20)
        assert predictor.predicts_dead(signature)

    def test_touch_trains_live(self):
        policy, predictor = self._policy()
        signature = predictor.index_of(0, 0x10)
        predictor.train_dead(signature)
        policy.insert(0, core=0, pc=0x10)
        policy.touch(0, core=0)
        assert not predictor.predicts_dead(signature)


class TestSDBPCache:
    def test_stream_becomes_preferred_victim(self):
        geometry = CacheGeometry(size_bytes=1 * 4 * 64, block_bytes=64, ways=4)
        cache = SetAssociativeCache(geometry, sdbp_factory(), "sdbp")
        # Train: loop PC 0xA over 2 blocks reuses; stream PC 0xB never.
        stream_block = 100
        for _ in range(200):
            cache.access(0, 0, 0xA, False)
            cache.access(1, 0, 0xA, False)
            cache.access(stream_block, 0, 0xB, False)
            stream_block += 1
        # Loop lines survive the stream once 0xB is predicted dead.
        assert cache.access(0, 0, 0xA, False)
        assert cache.access(1, 0, 0xA, False)
