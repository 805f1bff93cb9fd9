"""Tests for the memory models, core model and multicore engine."""

from __future__ import annotations

import pytest

from repro.cache.cache import LEVEL_L1, LEVEL_L2, LEVEL_LLC, LEVEL_MEMORY
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
        llc = make_llc("lru", config)
        memory = FixedLatencyMemory(config.latency.memory)
        return CoreModel(0, trace, config, warmup_accesses=warmup), llc, memory

    @staticmethod
    def _run(core, llc, memory, accesses):
        """Run ``accesses`` accesses, one frame each."""
        for _ in range(accesses):
            core.advance(llc.access, memory, core.clock)

    def test_first_access_costs_memory_latency(self):
        core, llc, memory = self._core([0, 1], gap=2)
        self._run(core, llc, memory, 1)
        assert core.cursor == 1 and core.level_counts[LEVEL_MEMORY] == 1
        assert core.clock == 2 + memory.latency

    def test_repeat_access_hits_l1(self):
        core, llc, memory = self._core([0, 0])
        config = core.config
        assert core.l1 is None and core.l2 is None  # built by the first frame
        self._run(core, llc, memory, 1)
        assert len(core.l1) == config.l1.num_sets and len(core.l2) == config.l2.num_sets
        self._run(core, llc, memory, 1)
        assert core.level_counts == {
            LEVEL_L1: 1, LEVEL_L2: 0, LEVEL_LLC: 0, LEVEL_MEMORY: 1,
        }
        assert core.clock == memory.latency + config.latency.l1_hit

    def test_l1_conflict_hits_l2(self):
        # The tiny L1 has 4 sets of 2 ways: blocks 0, 4 and 8 share set
        # 0, so the third evicts block 0, which the 4-way L2 still holds.
        core, llc, memory = self._core([0, 4, 8, 0])
        core.advance(llc.access, memory)
        assert core.level_counts == {
            LEVEL_L1: 0, LEVEL_L2: 1, LEVEL_LLC: 0, LEVEL_MEMORY: 3,
        }
        # Tags, most recent first: block 0 is tag 0 of both sets 0.
        assert core.l1[0] == [0, 2] and core.l2[0] == [0, 1] and core.l2[4] == [0]
        assert core.clock == 3 * memory.latency + core.config.latency.l2_hit

    def test_llc_catches_l2_victims(self):
        # Blocks 0, 8, 16, 24 and 32 share L1 set 0 and L2 set 0 (8 sets
        # of 4 ways), so block 0 leaves both; the 32-set LLC keeps it.
        core, llc, memory = self._core([0, 8, 16, 24, 32, 0])
        core.advance(llc.access, memory)
        assert core.level_counts == {
            LEVEL_L1: 0, LEVEL_L2: 0, LEVEL_LLC: 1, LEVEL_MEMORY: 5,
        }
        assert core.clock == 5 * memory.latency + core.config.latency.llc_hit

    def test_advancing_a_finished_core_changes_nothing(self):
        core, llc, memory = self._core([0, 1])
        self._run(core, llc, memory, 2)
        assert core.first_pass_done and core.cursor == 0 and core.passes == 1
        state = (core.clock, core.completion_clock, dict(core.level_counts),
                 llc.snapshot_counters(), memory.requests)
        core.advance(llc.access, memory)
        self._run(core, llc, memory, 1)
        assert core.cursor == 0 and core.passes == 1
        assert state == (core.clock, core.completion_clock, dict(core.level_counts),
                         llc.snapshot_counters(), memory.requests)
        assert core.llc_misses() == 2

    def test_warmup_excluded_from_stats(self):
        core, llc, memory = self._core([0, 1, 2, 3], warmup=2)
        self._run(core, llc, memory, 4)
        assert core.llc_misses() == 2  # only accesses 2 and 3 measured
        assert core.measured_accesses == 2
        assert core.cycles() < core.clock
        assert core.warmup_clock == 2 * memory.latency

    def test_warmup_bounds_checked(self):
        config = tiny_system_config(1)
        with pytest.raises(ValueError):
            CoreModel(0, make_trace([0, 1]), config, warmup_accesses=2)

    def test_ipc_mid_pass(self):
        core, llc, memory = self._core([0, 1, 2], gap=1)
        self._run(core, llc, memory, 1)
        assert 0 < core.ipc() < 1

    def test_mpki(self):
        core, llc, memory = self._core([0, 0, 0, 0], gap=0)
        self._run(core, llc, memory, 4)
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
        # An early finisher never runs again: it does not wrap
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
