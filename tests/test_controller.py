"""Tests for the NUcache epoch controller."""

from __future__ import annotations

from repro.common.config import NUcacheConfig
from repro.nucache.controller import WARMUP_FRACTION, NUcacheController


def _controller(**overrides):
    defaults = dict(
        deli_ways=2,
        num_candidate_pcs=4,
        epoch_misses=100,
        history_capacity=64,
        max_selected_pcs=2,
    )
    defaults.update(overrides)
    return NUcacheController(NUcacheConfig(**defaults), deli_capacity=32)


def _feed_miss(controller, key):
    """One miss plus its access tick; returns True at the boundary."""
    controller.note_miss(*key)
    return controller.note_access()


def _drive_epoch(controller, key=(0, 0x10), count=None):
    """Feed misses until the epoch boundary, then rotate."""
    remapped = {}

    def remap(table):
        remapped.clear()
        remapped.update(table)

    fed = 0
    while True:
        fed += 1
        if _feed_miss(controller, key):
            break
        if count is not None and fed >= count:
            break
    controller.rotate(remap)
    return remapped


class TestEpochProtocol:
    def test_first_epoch_is_short(self):
        controller = _controller()
        target = int(100 * WARMUP_FRACTION)
        for _ in range(target - 1):
            assert not _feed_miss(controller, (0, 1))
        assert _feed_miss(controller, (0, 1))

    def test_third_epoch_is_full_length(self):
        controller = _controller()
        _drive_epoch(controller)
        _drive_epoch(controller)
        # Now full length: 100 misses needed.
        for _ in range(99):
            assert not _feed_miss(controller, (0, 1))
        assert _feed_miss(controller, (0, 1))

    def test_candidates_learned_from_misses(self):
        controller = _controller()
        for _ in range(10):
            _feed_miss(controller, (0, 0xAA))
        while not _feed_miss(controller, (0, 0xBB)):
            pass
        controller.rotate(lambda table: None)
        assert controller.slot_of(0, 0xAA) >= 0
        assert controller.slot_of(0, 0xBB) >= 0
        assert controller.slot_of(0, 0xCC) == -1

    def test_candidate_table_bounded(self):
        controller = _controller(num_candidate_pcs=4)
        count = 0
        done = False
        while not done:
            done = _feed_miss(controller, (0, count))
            count += 1
        controller.rotate(lambda table: None)
        slots = [controller.slot_of(0, pc) for pc in range(count)]
        assert sum(1 for slot in slots if slot >= 0) <= 4

    def test_remap_receives_new_table(self):
        controller = _controller()
        table = _drive_epoch(controller, key=(0, 0x77))
        assert (0, 0x77) in table

    def test_miss_counts_reset_each_epoch(self):
        controller = _controller()
        _drive_epoch(controller, key=(0, 1))
        # Next epoch driven by a different PC; old PC should fade once
        # it stops missing and is not selected.
        _drive_epoch(controller, key=(0, 2))
        _drive_epoch(controller, key=(0, 2))
        assert controller.slot_of(0, 2) >= 0


class TestSelection:
    def _push_capturable_traffic(self, controller, key, blocks):
        """One epoch of misses where key's lines are quickly reused."""
        done = False
        block = 0
        while not done:
            done = _feed_miss(controller, key)
            slot = controller.slot_of(*key)
            if slot >= 0:
                addr = blocks + (block % 8)
                controller.profiler.on_eviction(0, addr, slot)
                controller.profiler.on_reuse(0, addr)
            block += 1

    def test_selects_capturable_pc(self):
        controller = _controller()
        _drive_epoch(controller, key=(0, 0x10))  # learn candidate
        self._push_capturable_traffic(controller, (0, 0x10), blocks=1000)
        controller.rotate(lambda table: None)
        assert controller.is_selected(controller.slot_of(0, 0x10))
        assert (0, 0x10) in controller.selected_keys()

    def test_nothing_selected_without_events(self):
        controller = _controller()
        _drive_epoch(controller)
        _drive_epoch(controller)
        assert controller.selected_slots == frozenset()

    def test_selected_pc_kept_in_candidate_table(self):
        controller = _controller(num_candidate_pcs=2)
        _drive_epoch(controller, key=(0, 0x10))
        self._push_capturable_traffic(controller, (0, 0x10), blocks=1000)
        controller.rotate(lambda table: None)
        assert controller.is_selected(controller.slot_of(0, 0x10))
        # A flood of misses from other PCs must not push the selected PC
        # out of the table.
        done = False
        pc = 0x100
        while not done:
            done = _feed_miss(controller, (0, pc))
            pc += 1
        controller.rotate(lambda table: None)
        assert controller.slot_of(0, 0x10) >= 0

    def test_hysteresis_keeps_near_tied_selection(self):
        controller = _controller()
        _drive_epoch(controller, key=(0, 0x10))
        self._push_capturable_traffic(controller, (0, 0x10), blocks=1000)
        controller.rotate(lambda table: None)
        first = set(controller.selected_keys())
        # Same traffic pattern again: selection must not churn.
        self._push_capturable_traffic(controller, (0, 0x10), blocks=1000)
        controller.rotate(lambda table: None)
        assert set(controller.selected_keys()) == first

    def test_profile_history_disabled_by_default(self):
        controller = _controller()
        _drive_epoch(controller)
        assert controller.profile_history == []

    def test_profile_history_collected_when_enabled(self):
        controller = _controller()
        controller.keep_profiles = True
        _drive_epoch(controller)
        _drive_epoch(controller)
        assert len(controller.profile_history) == 2
