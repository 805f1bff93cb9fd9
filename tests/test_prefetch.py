"""Tests for the prefetcher models and their simulator integration."""

from __future__ import annotations

import pytest

from repro.common.config import tiny_system_config
from repro.prefetch.prefetchers import (
    PREFETCH_PC,
    NextLinePrefetcher,
    NoPrefetcher,
    StreamPrefetcher,
    StridePrefetcher,
    make_prefetcher,
)
from repro.sim.core import CoreModel
from repro.sim.engine import MulticoreEngine
from repro.sim.memory import FixedLatencyMemory
from repro.sim.policies import make_llc

from conftest import make_trace


class TestNoPrefetcher:
    def test_never_prefetches(self):
        prefetcher = NoPrefetcher()
        assert prefetcher.observe(5, 0x10, True) == []
        assert prefetcher.issued == 0


class TestNextLine:
    def test_prefetches_on_miss(self):
        prefetcher = NextLinePrefetcher(degree=2)
        assert prefetcher.observe(10, 0x10, was_miss=True) == [11, 12]
        assert prefetcher.issued == 2

    def test_silent_on_hit(self):
        prefetcher = NextLinePrefetcher()
        assert prefetcher.observe(10, 0x10, was_miss=False) == []

    def test_rejects_bad_degree(self):
        with pytest.raises(ValueError):
            NextLinePrefetcher(degree=0)


class TestStride:
    def test_detects_constant_stride(self):
        prefetcher = StridePrefetcher(degree=2, confidence_threshold=2)
        assert prefetcher.observe(0, 0x10, True) == []      # table fill
        assert prefetcher.observe(4, 0x10, True) == []      # stride learned
        assert prefetcher.observe(8, 0x10, True) == [12, 16]  # 2nd confirmation
        assert prefetcher.observe(12, 0x10, True) == [16, 20]

    def test_negative_stride(self):
        prefetcher = StridePrefetcher(degree=1, confidence_threshold=2)
        for block in (100, 98, 96):
            prefetcher.observe(block, 0x10, True)
        assert prefetcher.observe(94, 0x10, True) == [92]

    def test_stride_change_resets_confidence(self):
        prefetcher = StridePrefetcher(degree=1, confidence_threshold=2)
        for block in (0, 4, 8, 12):
            prefetcher.observe(block, 0x10, True)
        assert prefetcher.observe(13, 0x10, True) == []  # stride broke

    def test_per_pc_isolation(self):
        prefetcher = StridePrefetcher(degree=1, confidence_threshold=1)
        prefetcher.observe(0, 0xA, True)
        prefetcher.observe(4, 0xA, True)
        # A different PC interleaved does not disturb 0xA's stride.
        prefetcher.observe(1000, 0xB, True)
        assert prefetcher.observe(8, 0xA, True) == [12]

    def test_table_capacity_bounded(self):
        prefetcher = StridePrefetcher(table_size=2)
        for pc in range(10):
            prefetcher.observe(pc * 100, pc, True)
        assert len(prefetcher._table) <= 2


class TestStream:
    def test_trains_then_runs_ahead(self):
        prefetcher = StreamPrefetcher(degree=2, train_length=2)
        results = [prefetcher.observe(block, 0x10, True) for block in range(6)]
        assert results[-1] == [6, 7]

    def test_direction_matters(self):
        prefetcher = StreamPrefetcher(degree=1, train_length=2)
        for block in (100, 99, 98, 97):
            last = prefetcher.observe(block, 0x10, True)
        assert last == [96]

    def test_unknown_prefetcher_rejected(self):
        with pytest.raises(ValueError):
            make_prefetcher("psychic")

    def test_factory_builds_all(self):
        for name in ("none", "nextline", "stride", "stream"):
            candidates = make_prefetcher(name).observe(0, 0, False)
            assert isinstance(candidates, list)


class TestIntegration:
    def test_prefetch_fills_llc(self):
        config = tiny_system_config(1)
        trace = make_trace(list(range(0, 64)))
        llc = make_llc("lru", config)
        core = CoreModel(0, trace, config, prefetcher=StridePrefetcher(degree=4,
                                                                       confidence_threshold=1))
        memory = FixedLatencyMemory(config.latency.memory)
        core.advance(llc.access, memory)
        # With a trained stride prefetcher the sequential walk should
        # have far fewer demand LLC misses than its 64 blocks.
        assert core.llc_misses() < 32

    def test_prefetch_pc_reserved_value(self):
        config = tiny_system_config(1)
        trace = make_trace(list(range(0, 32)))
        llc = make_llc("lru", config)
        seen_pcs = []
        original = llc.access

        def spy(block, core_id, pc, is_write):
            seen_pcs.append(pc)
            return original(block, core_id, pc, is_write)

        llc.access = spy  # type: ignore[method-assign]
        core = CoreModel(0, trace, config,
                         prefetcher=NextLinePrefetcher(degree=1))
        memory = FixedLatencyMemory(config.latency.memory)
        core.advance(llc.access, memory)
        assert core.first_pass_done
        assert PREFETCH_PC in seen_pcs

    def test_engine_validates_prefetcher_count(self):
        from repro.common.errors import SimulationError

        config = tiny_system_config(2)
        traces = [make_trace([0, 1]), make_trace([5, 6])]
        with pytest.raises(SimulationError):
            MulticoreEngine(traces, make_llc("lru", config), config,
                            prefetchers=[NoPrefetcher()])

    def test_runner_prefetcher_smoke(self):
        import repro

        result = repro.run_single("hmmer_like", "lru", 10_000,
                                  prefetcher="nextline")
        assert result.cores[0].ipc > 0
