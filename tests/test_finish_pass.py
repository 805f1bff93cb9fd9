"""The lone core's fused loop against the reference ``step()``.

:meth:`CoreModel.finish_pass` runs the rest of a core's first pass in
one frame, with the private L1/L2 walk inlined.  It must leave every
piece of state exactly as repeated :meth:`CoreModel.step` calls leave
it: the core's counters and clocks, the private caches' sets and stats,
the LLC's counters and the memory model's requests.  Each case builds
two identical systems, optionally steps both into the trace (a resumed
cursor and clock), then finishes one with ``finish_pass`` and the other
with ``step`` and compares them.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import tiny_system_config
from repro.prefetch.prefetchers import make_prefetcher
from repro.sim.core import CoreModel
from repro.sim.engine import MulticoreEngine
from repro.sim.memory import BandwidthLimitedMemory, FixedLatencyMemory
from repro.sim.policies import make_llc

from conftest import make_trace

PREFETCHERS = ["none", "nextline", "stride", "stream"]
POLICIES = ["lru", "nucache"]
MEMORIES = ["fixed", "bandwidth"]


def _system(blocks, pcs, writes, warmup, policy, prefetcher, memory_model, gap):
    """One core with its LLC and memory, built the same way every call."""
    # Short epochs, so NUcache rotates (and selects) inside short traces.
    config = tiny_system_config(1, epoch_misses=200)
    trace = make_trace(blocks, pcs=pcs, writes=writes, gap=gap)
    core = CoreModel(
        0, trace, config, warmup_accesses=warmup,
        prefetcher=None if prefetcher == "none" else make_prefetcher(prefetcher),
    )
    if memory_model == "fixed":
        memory = FixedLatencyMemory(config.latency.memory)
    else:
        memory = BandwidthLimitedMemory(config.latency.memory, gap=37)
    return core, make_llc(policy, config, 3), memory


def _cache_state(cache):
    """Every slot list, recency stack and index of a private cache."""
    sets = [
        (
            list(s._valid), list(s._tags), list(s._dirty), list(s._cores),
            list(s._free_ways),
            list(s._tag_to_way.items()), list(s.policy.stack),
        )
        for s in cache.sets
    ]
    return sets, dataclasses.asdict(cache.stats), cache.fills


def _state(core, llc, memory):
    return {
        "clock": core.clock,
        "cursor": core.cursor,
        "passes": core.passes,
        "completion_clock": core.completion_clock,
        "warmup_clock": core.warmup_clock,
        "level_counts": list(core.level_counts.items()),
        "l1": _cache_state(core.l1),
        "l2": _cache_state(core.l2),
        "llc": llc.snapshot_counters(),
        "occupancy": llc.occupancy_by_core(),
        "memory": (memory.requests, getattr(memory, "_channel_free_at", None)),
        "prefetched": None if core.prefetcher is None else core.prefetcher.issued,
    }


def _assert_lockstep(blocks, pcs, writes, warmup, resume, policy, prefetcher,
                     memory_model, gap=0):
    """Finish one copy with finish_pass, the other with step(); compare."""
    fused = _system(blocks, pcs, writes, warmup, policy, prefetcher, memory_model, gap)
    reference = _system(blocks, pcs, writes, warmup, policy, prefetcher, memory_model, gap)
    for core, llc, memory in (fused, reference):
        for _ in range(resume):
            core.step(llc.access, memory)
    core, llc, memory = fused
    core.finish_pass(llc.access, memory)
    core, llc, memory = reference
    while not core.first_pass_done:
        core.step(llc.access, memory)
    assert _state(*fused) == _state(*reference)
    assert fused[0].first_pass_done and fused[0].cursor == 0


def _random_trace(rng, length, footprint):
    blocks = rng.integers(0, footprint, size=length).tolist()
    # A few runs of sequential blocks, so the stride and stream
    # prefetchers train and issue.
    start = int(rng.integers(0, footprint))
    for i in range(min(40, length)):
        blocks[(i * 7) % length] = start + i
    pcs = rng.integers(0, 6, size=length).tolist()
    writes = (rng.random(length) < 0.3).tolist()
    return blocks, pcs, writes


class TestLockstepGrid:
    """Every prefetcher, LLC and memory model, warm and resumed."""

    @pytest.mark.parametrize("memory_model", MEMORIES)
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("prefetcher", PREFETCHERS)
    @pytest.mark.parametrize("warmup,resume", [(0, 0), (300, 0), (300, 120), (100, 700)])
    def test_matches_step(self, warmup, resume, prefetcher, policy, memory_model):
        rng = np.random.default_rng(
            [warmup, resume, PREFETCHERS.index(prefetcher),
             POLICIES.index(policy), MEMORIES.index(memory_model)]
        )
        blocks, pcs, writes = _random_trace(rng, 1_200, 160)
        _assert_lockstep(blocks, pcs, writes, warmup, resume, policy, prefetcher,
                         memory_model, gap=2)

    def test_finished_core_is_left_alone(self):
        core, llc, memory = _system([1, 2, 3], [0, 0, 0], [False] * 3, 0,
                                    "lru", "none", "fixed", 0)
        core.finish_pass(llc.access, memory)
        before = _state(core, llc, memory)
        core.finish_pass(llc.access, memory)
        assert _state(core, llc, memory) == before


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_random_shapes_match_step(data):
    length = data.draw(st.integers(1, 400), label="length")
    blocks = data.draw(
        st.lists(st.integers(0, 120), min_size=length, max_size=length), label="blocks"
    )
    pcs = data.draw(
        st.lists(st.integers(0, 5), min_size=length, max_size=length), label="pcs"
    )
    writes = data.draw(
        st.lists(st.booleans(), min_size=length, max_size=length), label="writes"
    )
    warmup = data.draw(st.integers(0, length - 1), label="warmup")
    resume = data.draw(st.integers(0, length - 1), label="resume")
    _assert_lockstep(
        blocks, pcs, writes, warmup, resume,
        data.draw(st.sampled_from(POLICIES), label="policy"),
        data.draw(st.sampled_from(PREFETCHERS), label="prefetcher"),
        data.draw(st.sampled_from(MEMORIES), label="memory"),
        gap=data.draw(st.integers(0, 3), label="gap"),
    )


class TestEngineUsesFusedLoop:
    """The engine hands a lone pending core to finish_pass, never step()."""

    def _count_steps(self, monkeypatch):
        calls = {"step": 0, "finish_pass": 0}
        step, finish_pass = CoreModel.step, CoreModel.finish_pass

        def counting_step(core, access, memory):
            calls["step"] += 1
            return step(core, access, memory)

        def counting_finish_pass(core, access, memory):
            calls["finish_pass"] += 1
            return finish_pass(core, access, memory)

        monkeypatch.setattr(CoreModel, "step", counting_step)
        monkeypatch.setattr(CoreModel, "finish_pass", counting_finish_pass)
        return calls

    def test_single_core_run_takes_one_frame(self, monkeypatch):
        calls = self._count_steps(monkeypatch)
        config = tiny_system_config(1)
        engine = MulticoreEngine(
            [make_trace(list(range(500)) * 2)], make_llc("nucache", config), config
        )
        engine.run()
        assert calls == {"step": 0, "finish_pass": 1}

    def test_multicore_tail_takes_one_frame(self, monkeypatch):
        calls = self._count_steps(monkeypatch)
        config = tiny_system_config(2)
        traces = [make_trace(list(range(300)), name="a"),
                  make_trace(list(range(1000, 1900)), name="b")]
        engine = MulticoreEngine(traces, make_llc("lru", config), config)
        engine.run()
        assert calls["finish_pass"] == 1
        # The heap stepped both cores until the first one finished.
        assert 300 <= calls["step"] < 1_200
