"""Tests for the memory models, core model and multicore engine."""

from __future__ import annotations

import pytest

from repro.cache.cache import LEVEL_L1, LEVEL_MEMORY
from repro.common.config import paper_system_config, tiny_system_config
from repro.common.errors import ConfigError, SimulationError
from repro.sim.core import CoreModel
from repro.sim.engine import MulticoreEngine
from repro.sim.memory import BandwidthLimitedMemory, FixedLatencyMemory
from repro.sim.policies import make_llc, policy_names
from repro.sim.runner import make_traces
from repro.sim.vector import VectorEngine

from conftest import make_trace


class TestFixedLatencyMemory:
    def test_constant_latency(self):
        memory = FixedLatencyMemory(100)
        assert memory.service(0) == 100
        assert memory.service(5000) == 100
        assert memory.requests == 2

    def test_rejects_zero_latency(self):
        with pytest.raises(ConfigError):
            FixedLatencyMemory(0)


class TestBandwidthLimitedMemory:
    def test_idle_channel_is_fixed_latency(self):
        memory = BandwidthLimitedMemory(latency=100, gap=10)
        assert memory.service(0) == 100
        assert memory.service(1000) == 100

    def test_back_to_back_requests_queue(self):
        memory = BandwidthLimitedMemory(latency=100, gap=10)
        assert memory.service(0) == 100
        assert memory.service(0) == 110  # waits for the channel
        assert memory.service(0) == 120

    def test_rejects_bad_gap(self):
        with pytest.raises(ConfigError):
            BandwidthLimitedMemory(100, 0)


class TestCoreModel:
    def _core(self, blocks, gap=0, warmup=0, config=None):
        config = config or tiny_system_config(1)
        trace = make_trace(blocks, gap=gap)
        return CoreModel(0, trace, config, warmup_accesses=warmup), config

    def test_first_access_costs_memory_latency(self):
        core, config = self._core([0], gap=2)
        llc = make_llc("lru", config)
        level = core.step(llc, FixedLatencyMemory(config.latency.memory))
        assert level == LEVEL_MEMORY
        assert core.clock == 2 + config.latency.memory

    def test_repeat_access_hits_l1(self):
        core, config = self._core([0, 0])
        llc = make_llc("lru", config)
        memory = FixedLatencyMemory(config.latency.memory)
        assert core.l1 is None and core.l2 is None  # built by the first step
        core.step(llc, memory)
        assert core.l1.geometry == config.l1 and core.l2.geometry == config.l2
        assert core.step(llc, memory) == LEVEL_L1

    def test_completion_freezes_stats(self):
        core, config = self._core([0, 1])
        llc = make_llc("lru", config)
        memory = FixedLatencyMemory(config.latency.memory)
        core.step(llc, memory)
        core.step(llc, memory)
        assert core.first_pass_done
        clock_at_completion = core.completion_clock
        core.step(llc, memory)  # wraps around
        assert core.completion_clock == clock_at_completion
        assert core.llc_misses() == 2

    def test_warmup_excluded_from_stats(self):
        core, config = self._core([0, 1, 2, 3], warmup=2)
        llc = make_llc("lru", config)
        memory = FixedLatencyMemory(config.latency.memory)
        for _ in range(4):
            core.step(llc, memory)
        assert core.llc_misses() == 2  # only accesses 2 and 3 measured
        assert core.measured_accesses == 2
        assert core.cycles() < core.clock

    def test_warmup_bounds_checked(self):
        config = tiny_system_config(1)
        with pytest.raises(ValueError):
            CoreModel(0, make_trace([0, 1]), config, warmup_accesses=2)

    def test_ipc_mid_pass(self):
        core, config = self._core([0, 1, 2], gap=1)
        llc = make_llc("lru", config)
        memory = FixedLatencyMemory(config.latency.memory)
        core.step(llc, memory)
        assert 0 < core.ipc() < 1

    def test_mpki(self):
        core, config = self._core([0, 0, 0, 0], gap=0)
        llc = make_llc("lru", config)
        memory = FixedLatencyMemory(config.latency.memory)
        for _ in range(4):
            core.step(llc, memory)
        assert core.mpki() == 250.0  # 1 miss / 4 instructions


class TestMulticoreEngine:
    def test_requires_matching_trace_count(self):
        config = tiny_system_config(2)
        with pytest.raises(SimulationError):
            MulticoreEngine([make_trace([0])], make_llc("lru", config), config)

    def test_rejects_bad_warmup(self):
        config = tiny_system_config(1)
        with pytest.raises(SimulationError):
            MulticoreEngine([make_trace([0])], make_llc("lru", config), config,
                            warmup_fraction=1.0)

    def test_single_core_completes(self):
        config = tiny_system_config(1)
        engine = MulticoreEngine(
            [make_trace([0, 1, 2, 0, 1, 2])], make_llc("lru", config), config
        )
        result = engine.run()
        assert result.cores[0].instructions == 6
        assert result.cores[0].llc_misses == 3

    def test_cores_interleave_by_clock(self):
        config = tiny_system_config(2)
        # Core 0: all misses (slow). Core 1: repeated block (fast after
        # first access).  Core 1 must finish far more cheaply.
        traces = [
            make_trace(list(range(0, 4096, 1)), name="misses"),
            make_trace([0] * 10, name="hits"),
        ]
        engine = MulticoreEngine(traces, make_llc("lru", config), config)
        result = engine.run()
        assert result.core(1).cycles < result.core(0).cycles

    def test_all_cores_complete_first_pass(self):
        config = tiny_system_config(2)
        traces = [make_trace([0, 1, 2]), make_trace([5, 6, 7, 8, 9])]
        result = MulticoreEngine(traces, make_llc("lru", config), config).run()
        assert all(core.instructions > 0 for core in result.cores)
        assert all(core.cycles > 0 for core in result.cores)

    @pytest.mark.parametrize("engine_cls", [MulticoreEngine, VectorEngine])
    def test_finished_core_stops_at_its_completion(self, engine_cls):
        # An early finisher is never stepped again: it does not wrap
        # around and add contention while slower cores finish (a
        # methodology deviation, see DESIGN.md).
        config = paper_system_config(2)
        traces = make_traces(["gcc_like", "mcf_like"], 5_000, 1)
        engine = engine_cls(traces, make_llc("lru", config), config)
        engine.run()
        clocks = [core.completion_clock for core in engine.cores]
        assert clocks[0] != clocks[1]
        for core in engine.cores:
            assert (core.passes, core.clock) == (1, core.completion_clock)

    def test_nucache_extra_reported(self):
        config = tiny_system_config(1)
        engine = MulticoreEngine(
            [make_trace([0, 1, 2])], make_llc("nucache", config), config
        )
        result = engine.run()
        assert "deli_hits" in result.llc_extra
        assert "retentions" in result.llc_extra

    def test_core_lookup_error(self):
        config = tiny_system_config(1)
        result = MulticoreEngine(
            [make_trace([0])], make_llc("lru", config), config
        ).run()
        with pytest.raises(SimulationError):
            result.core(7)


class TestPolicyFactory:
    def test_all_policies_buildable_and_runnable(self):
        config = tiny_system_config(2)
        traces = [make_trace(list(range(30))), make_trace(list(range(50, 90)))]
        for policy in policy_names():
            llc = make_llc(policy, config, seed=1)
            result = MulticoreEngine(traces, llc, config).run()
            assert result.policy == policy
            assert result.total_llc_misses > 0

    def test_unknown_policy(self):
        with pytest.raises(ConfigError):
            make_llc("magic", tiny_system_config(1))
