"""Tests for the UCP+NUcache hybrid organization."""

from __future__ import annotations

import pytest

from repro.common.config import CacheGeometry, NUcacheConfig
from repro.nucache.partitioned import PartitionedNUCache


def _geometry(sets=2, ways=8):
    return CacheGeometry(size_bytes=sets * ways * 64, block_bytes=64, ways=ways)


def _hybrid(sets=2, ways=8, deli=2, cores=2, **overrides):
    defaults = dict(
        deli_ways=deli,
        num_candidate_pcs=4,
        epoch_misses=100,
        history_capacity=64,
        max_selected_pcs=2,
    )
    defaults.update(overrides)
    return PartitionedNUCache(
        _geometry(sets, ways), NUcacheConfig(**defaults), num_cores=cores,
        repartition_period=10**9,
    )


class TestConstruction:
    def test_rejects_zero_cores(self):
        with pytest.raises(ValueError):
            _hybrid(cores=0)

    def test_rejects_more_cores_than_mainways(self):
        with pytest.raises(ValueError):
            _hybrid(ways=4, deli=3, cores=2)  # 1 MainWay, 2 cores

    def test_even_initial_allocation(self):
        hybrid = _hybrid(ways=8, deli=2, cores=2)
        assert hybrid.allocation == [3, 3]


class TestBehaviour:
    def test_basic_hit_miss(self):
        hybrid = _hybrid()
        assert not hybrid.access(0, 0, 0, False)
        assert hybrid.access(0, 0, 0, False)

    def test_quota_protects_against_flood(self):
        # 1 set, 6 MainWays; core 0 allocated 4, core 1 allocated 2.
        hybrid = _hybrid(sets=1, ways=8, deli=2, cores=2)
        hybrid.allocation = [4, 2]
        for block in (0, 1, 2, 3):
            hybrid.access(block, core=0, pc=0, is_write=False)
        for block in (10, 11, 12, 13, 14, 15):
            hybrid.access(block, core=1, pc=0, is_write=False)
        # Core 0's lines survive the flood (nothing selected -> no deli).
        for block in (0, 1, 2, 3):
            assert hybrid.access(block, core=0, pc=0, is_write=False), block

    def test_repartition_runs_and_sums(self):
        hybrid = _hybrid(cores=2)
        hybrid.monitors[0].position_hits = [10] * hybrid.geometry.ways
        allocation = hybrid.repartition()
        assert sum(allocation) == hybrid.main_ways
        assert all(ways >= 1 for ways in allocation)
        assert hybrid.repartitions == 1

    def test_repartition_on_schedule(self):
        hybrid = PartitionedNUCache(
            _geometry(), NUcacheConfig(deli_ways=2, num_candidate_pcs=4,
                                       max_selected_pcs=2),
            num_cores=2, repartition_period=10,
        )
        for block in range(25):
            hybrid.access(block, core=block % 2, pc=0, is_write=False)
        assert hybrid.repartitions == 2

    def test_deliways_still_work(self):
        hybrid = _hybrid(sets=1, ways=8, deli=2, cores=2)
        controller = hybrid.controller
        controller._slot_of = {(0, 0x40): 0}
        controller._slot_keys = [(0, 0x40)]
        controller._selected = frozenset([0])
        controller.profiler.begin_epoch(1)
        # Overflow the 6 MainWays with selected-PC lines: the evicted
        # selected lines must land in the DeliWays and hit.
        hybrid.allocation = [3, 3]
        for block in range(7):
            hybrid.access(block, core=0, pc=0x40, is_write=False)
        assert hybrid.retentions >= 1
        assert hybrid.access(0, core=0, pc=0x40, is_write=False)
        assert hybrid.deli_hits >= 1

    def test_occupancy_conserved(self):
        hybrid = _hybrid(sets=2, ways=8, deli=2, cores=2)
        for block in range(40):
            hybrid.access(block, core=block % 2, pc=block % 3, is_write=False)
        for nu_set in hybrid.sets:
            assert len(nu_set.tag_to_way) <= hybrid.main_ways
            assert len(nu_set.deli) <= hybrid.deli_ways
