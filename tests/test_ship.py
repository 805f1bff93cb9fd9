"""Tests for the SHiP policy and its signature counter table."""

from __future__ import annotations

import pytest

from repro.cache.cache import SetAssociativeCache
from repro.cache.replacement.ship import (
    SHiPPolicy,
    SignatureHitCounterTable,
    ship_factory,
)
from repro.common.config import CacheGeometry


def _geometry(sets=2, ways=4):
    return CacheGeometry(size_bytes=sets * ways * 64, block_bytes=64, ways=ways)


class TestSHCT:
    def test_starts_weakly_reused(self):
        shct = SignatureHitCounterTable(entries=8)
        assert shct.value(0) == 1

    def test_training_saturates(self):
        shct = SignatureHitCounterTable(entries=8, counter_bits=2)
        for _ in range(10):
            shct.train_reused(3)
        assert shct.value(3) == 3
        for _ in range(10):
            shct.train_dead(3)
        assert shct.value(3) == 0

    def test_index_deterministic(self):
        shct = SignatureHitCounterTable(entries=64)
        assert shct.index_of(1, 0x400) == shct.index_of(1, 0x400)
        assert 0 <= shct.index_of(2, 0x999) < 64

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            SignatureHitCounterTable(entries=0)
        with pytest.raises(ValueError):
            SignatureHitCounterTable(counter_bits=0)


class TestSHiPPolicy:
    def _policy(self, ways=4, bypass=False):
        shct = SignatureHitCounterTable(entries=64)
        return SHiPPolicy(ways, shct, bypass=bypass), shct

    def test_trains_dead_on_unreused_eviction(self):
        policy, shct = self._policy()
        signature = shct.index_of(0, 0x10)
        before = shct.value(signature)
        policy.insert(0, core=0, pc=0x10)
        policy.insert(0, core=0, pc=0x20)  # overwrite: 0x10 never reused
        assert shct.value(signature) == before - 1

    def test_trains_reused_on_first_touch_only(self):
        policy, shct = self._policy()
        signature = shct.index_of(0, 0x10)
        policy.insert(0, core=0, pc=0x10)
        before = shct.value(signature)
        policy.touch(0, core=0)
        policy.touch(0, core=0)
        assert shct.value(signature) == before + 1

    def test_dead_signature_inserted_distant(self):
        policy, shct = self._policy()
        signature = shct.index_of(0, 0x10)
        while shct.value(signature) > 0:
            shct.train_dead(signature)
        policy.insert(1, core=0, pc=0x10)
        assert policy.rrpv[1] == policy.max_rrpv

    def test_live_signature_inserted_long(self):
        policy, shct = self._policy()
        policy.insert(1, core=0, pc=0x10)
        assert policy.rrpv[1] == policy.max_rrpv - 1

    def test_bypass_only_for_dead_signatures(self):
        policy, shct = self._policy(bypass=True)
        assert not policy.should_bypass(0, 0x10)
        signature = shct.index_of(0, 0x10)
        while shct.value(signature) > 0:
            shct.train_dead(signature)
        assert policy.should_bypass(0, 0x10)

    def test_no_bypass_when_disabled(self):
        policy, shct = self._policy(bypass=False)
        signature = shct.index_of(0, 0x10)
        while shct.value(signature) > 0:
            shct.train_dead(signature)
        assert not policy.should_bypass(0, 0x10)


class TestSHiPCache:
    def test_learns_to_deprioritize_stream(self):
        """A streaming PC's fills must end up evicted before a reused
        PC's lines once the SHCT is trained."""
        cache = SetAssociativeCache(_geometry(sets=1, ways=4),
                                    ship_factory(), "ship")
        # Train: PC 0xS streams (never reuses), PC 0xL loops over 2 blocks.
        stream_block = 100
        for _ in range(300):
            cache.access(0, 0, 0xA, False)
            cache.access(1, 0, 0xA, False)
            cache.access(stream_block, 0, 0xB, False)
            stream_block += 1
        # After training, the loop blocks should be hitting.
        assert cache.access(0, 0, 0xA, False)
        assert cache.access(1, 0, 0xA, False)

    def test_bypass_variant_keeps_stream_out(self):
        cache = SetAssociativeCache(_geometry(sets=1, ways=4),
                                    ship_factory(bypass=True), "ship-bypass")
        stream_block = 100
        for _ in range(300):
            cache.access(0, 0, 0xA, False)
            cache.access(stream_block, 0, 0xB, False)
            stream_block += 1
        # Stream fills are bypassed: occupancy stays small.
        assert cache.occupancy <= 4
        assert cache.access(0, 0, 0xA, False)
