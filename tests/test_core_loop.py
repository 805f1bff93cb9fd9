"""The core loop: :meth:`CoreModel.advance` in turns and in one frame.

``advance`` runs a core's accesses until its clock passes a limit or its
first pass ends.  Where the frame stops must change nothing but the
stopping point: a core run in turns at random clock limits must end in
exactly the state of its twin run in one unlimited frame.  Each case
builds the two systems, optionally runs both one access at a time into
the trace (a resumed cursor and clock), then finishes one in turns and
the other in one frame, and compares the core's counters and clocks,
its private tag lists, the LLC's counters and occupancy, the memory
model's requests and the prefetcher's fills.  The private levels are
also checked against the independent LRU kernel, ``lru_batch``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cache import LEVEL_L1, LEVEL_L2
from repro.common.config import paper_system_config, tiny_system_config
from repro.prefetch.prefetchers import make_prefetcher
from repro.sim.core import CoreModel
from repro.sim.engine import MulticoreEngine
from repro.sim.memory import BandwidthLimitedMemory, FixedLatencyMemory
from repro.sim.policies import make_llc
from repro.sim.vector import clear_buffer_pool, lru_batch

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


def _state(core, llc, memory):
    return {
        "clock": core.clock,
        "cursor": core.cursor,
        "passes": core.passes,
        "completion_clock": core.completion_clock,
        "warmup_clock": core.warmup_clock,
        "level_counts": list(core.level_counts.items()),
        "l1": core.l1,
        "l2": core.l2,
        "llc": llc.snapshot_counters(),
        "occupancy": llc.occupancy_by_core(),
        "memory": (memory.requests, getattr(memory, "_channel_free_at", None)),
        "prefetched": None if core.prefetcher is None else core.prefetcher.issued,
    }


def _run_in_turns(core, llc, memory, rng):
    """Finish the first pass in frames at seeded random clock limits."""
    while not core.first_pass_done:
        start = core.cursor
        # Below the clock too: a turn still runs one access.
        limit = core.clock + int(rng.integers(-2, 400))
        core.advance(llc.access, memory, limit)
        assert core.first_pass_done or core.cursor > start
        assert core.first_pass_done or core.clock > limit


def _assert_turns_match_one_frame(blocks, pcs, writes, warmup, resume, policy,
                                  prefetcher, memory_model, seed, gap=0):
    """Finish one copy in turns, the other in one frame; compare."""
    turns = _system(blocks, pcs, writes, warmup, policy, prefetcher, memory_model, gap)
    frame = _system(blocks, pcs, writes, warmup, policy, prefetcher, memory_model, gap)
    for core, llc, memory in (turns, frame):
        for _ in range(resume):
            core.advance(llc.access, memory, core.clock)
    _run_in_turns(*turns, np.random.default_rng(seed))
    core, llc, memory = frame
    core.advance(llc.access, memory)
    assert _state(*turns) == _state(*frame)
    assert core.first_pass_done and core.cursor == 0 and core.passes == 1


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


class TestTurnsMatchOneFrame:
    """Every prefetcher, LLC and memory model, warm and resumed."""

    @pytest.mark.parametrize("memory_model", MEMORIES)
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("prefetcher", PREFETCHERS)
    @pytest.mark.parametrize("warmup,resume", [(0, 0), (300, 0), (300, 120), (100, 700)])
    def test_turns_match_one_frame(self, warmup, resume, prefetcher, policy,
                                   memory_model):
        seed = [warmup, resume, PREFETCHERS.index(prefetcher),
                POLICIES.index(policy), MEMORIES.index(memory_model)]
        blocks, pcs, writes = _random_trace(np.random.default_rng(seed), 1_200, 160)
        _assert_turns_match_one_frame(blocks, pcs, writes, warmup, resume, policy,
                                      prefetcher, memory_model, seed, gap=2)

    def test_finished_core_is_left_alone(self):
        core, llc, memory = _system([1, 2, 3], [0, 0, 0], [False] * 3, 0,
                                    "lru", "none", "fixed", 0)
        core.advance(llc.access, memory)
        before = _state(core, llc, memory)
        core.advance(llc.access, memory)
        core.advance(llc.access, memory, core.clock)
        assert _state(core, llc, memory) == before

    def test_turn_stops_at_the_first_access_past_its_limit(self):
        blocks, pcs, writes = _random_trace(np.random.default_rng(7), 600, 160)
        args = (blocks, pcs, writes, 50, "nucache", "stride", "bandwidth", 2)
        # The clock after each access, from a core run one access a turn.
        core, llc, memory = _system(*args)
        clocks = []
        while not core.first_pass_done:
            core.advance(llc.access, memory, core.clock)
            clocks.append(core.clock)
        core, llc, memory = _system(*args)
        rng = np.random.default_rng(8)
        while not core.first_pass_done:
            start = core.cursor
            limit = core.clock + int(rng.integers(-2, 400))
            core.advance(llc.access, memory, limit)
            past = [i for i in range(start, len(clocks)) if clocks[i] > limit]
            stop = past[0] + 1 if past else len(clocks)
            assert (core.cursor or len(clocks)) == stop
            assert core.clock == clocks[stop - 1]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_random_shapes_match_one_frame(data):
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
    _assert_turns_match_one_frame(
        blocks, pcs, writes, warmup, resume,
        data.draw(st.sampled_from(POLICIES), label="policy"),
        data.draw(st.sampled_from(PREFETCHERS), label="prefetcher"),
        data.draw(st.sampled_from(MEMORIES), label="memory"),
        data.draw(st.integers(0, 2**32 - 1), label="seed"),
        gap=data.draw(st.integers(0, 3), label="gap"),
    )


class TestTagListsMatchKernel:
    """The private tag lists hit exactly where the LRU kernel does."""

    @staticmethod
    def _kernel_hits(blocks, core_of, geometry, num_cores):
        """``VectorEngine._private_level``: one lane per core and set."""
        num_sets = geometry.num_sets
        lanes = core_of * num_sets + (blocks & (num_sets - 1))
        tags = blocks >> (num_sets.bit_length() - 1)
        hits, _, _ = lru_batch(lanes, tags, num_cores * num_sets, geometry.ways)
        return hits

    @pytest.mark.parametrize("machine", ["tiny", "paper"])
    @pytest.mark.parametrize("seed", range(3))
    def test_level_counts_match_lru_batch(self, machine, seed):
        rng = np.random.default_rng([seed, machine == "paper"])
        config = (tiny_system_config if machine == "tiny" else paper_system_config)(2)
        footprint = 8 * config.l2.num_sets * config.l2.ways
        lengths = rng.integers(500, 3_000, size=2)
        streams = [rng.integers(0, footprint >> rng.integers(0, 4), size=n) for n in lengths]
        traces = [make_trace(stream.tolist(), name=f"t{i}")
                  for i, stream in enumerate(streams)]
        engine = MulticoreEngine(traces, make_llc("lru", config), config,
                                 warmup_fraction=0.25)
        engine.run()

        blocks = np.concatenate(streams)
        core_of = np.repeat(np.arange(2), lengths)
        try:
            l1_hits = self._kernel_hits(blocks, core_of, config.l1, 2)
            miss = ~l1_hits
            l2_hits = np.zeros_like(l1_hits)
            l2_hits[miss] = self._kernel_hits(blocks[miss], core_of[miss], config.l2, 2)
        finally:
            clear_buffer_pool()
        for core in engine.cores:
            measured = np.zeros_like(l1_hits)
            first = int(lengths[:core.core_id].sum())
            measured[first + core.warmup_accesses:first + lengths[core.core_id]] = True
            assert core.level_counts[LEVEL_L1] == int((l1_hits & measured).sum())
            assert core.level_counts[LEVEL_L2] == int((l2_hits & measured).sum())


class TestEngineCallShape:
    """The engine runs each heap turn, and a lone core's pass, in one frame."""

    def _record_calls(self, monkeypatch):
        calls = []
        advance = CoreModel.advance

        def recording_advance(core, access, memory, limit=math.inf):
            calls.append((core.core_id, limit))
            return advance(core, access, memory, limit)

        monkeypatch.setattr(CoreModel, "advance", recording_advance)
        return calls

    def test_single_core_run_takes_one_frame(self, monkeypatch):
        calls = self._record_calls(monkeypatch)
        config = tiny_system_config(1)
        engine = MulticoreEngine(
            [make_trace(list(range(500)) * 2)], make_llc("nucache", config), config
        )
        engine.run()
        assert calls == [(0, math.inf)]

    def test_multicore_run_takes_turns_then_one_frame(self, monkeypatch):
        calls = self._record_calls(monkeypatch)
        config = tiny_system_config(2)
        traces = [make_trace(list(range(300)), name="a"),
                  make_trace(list(range(1000, 1900)), name="b")]
        engine = MulticoreEngine(traces, make_llc("lru", config), config)
        engine.run()
        *turns, tail = calls
        # The heap alternated the cores until core 0 finished; core 1's
        # tail ran unlimited.
        assert tail == (1, math.inf)
        assert {core_id for core_id, _ in turns} == {0, 1}
        assert all(limit < math.inf for _, limit in turns)
        assert len(turns) < 1_200
