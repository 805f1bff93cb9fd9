"""Equivalence and selection tests for the vector engine backend.

Three layers of evidence that ``repro.sim.vector`` cannot drift from
the scalar engine:

* **Kernel-level**: :func:`~repro.sim.vector.lru_batch` fuzzed against
  the real :class:`~repro.cache.cache.SetAssociativeCache` *and* the
  ``repro.check`` differential oracle's dict-based reference model,
  across edge geometries (1 set, 1/2/3 ways, non-power-of-two lane
  counts) and both packed-cell dtypes (int32 and tag-forced int64).
* **Engine-level**: full ``SimResult.to_dict()`` equality between
  :class:`~repro.sim.engine.MulticoreEngine` and
  :class:`~repro.sim.vector.VectorEngine` over fuzzed geometries,
  policies, core counts and memory models — covering the fully
  vectorized path, the multicore fixed-point solve, and the hybrid
  path that drives the real LLC object.
* **Plumbing**: engine selection (env/CLI), fallback triggers, and the
  store-key regression — ``REPRO_ENGINE`` must never change a
  :class:`~repro.exec.job.SimJob` key, because both backends produce
  byte-identical payloads and may share store entries.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.cache.cache import SetAssociativeCache
from repro.cache.replacement.basic import lru_factory
from repro.check import fuzz
from repro.check.invariants import CHECK_ENV_VAR
from repro.check.oracle import make_reference
from repro.common.config import CacheGeometry, paper_system_config
from repro.common.errors import InvariantViolation, SimulationError
from repro.exec.job import SimJob
from repro.obs.trace import Tracer, set_tracer
from repro.prefetch.prefetchers import make_prefetcher
from repro.sim import runner, vector
from repro.sim.engine import MulticoreEngine
from repro.sim.memory import BandwidthLimitedMemory, FixedLatencyMemory
from repro.sim.policies import make_llc
from repro.sim.runner import make_traces
from repro.sim.vector import (
    ENGINE_ENV,
    VectorEngine,
    clear_buffer_pool,
    lru_batch,
    make_engine,
    resolve_engine_mode,
)
from repro.workloads.mixes import mix_members

from conftest import make_trace

#: Edge-heavy (sets, ways) grid for kernel fuzzing.
KERNEL_GEOMETRIES = [
    (1, 2), (4, 1), (16, 2), (8, 3), (32, 5), (64, 8), (128, 16), (16, 4),
]


def _kernel_inputs(num_sets, ways, length, seed, big_tags=False):
    """Deterministic lanes/tags/cores arrays plus matching block addrs."""
    rng = np.random.default_rng(seed)
    footprint = max(8, num_sets * ways * 2)
    blocks = rng.integers(0, footprint, size=length)
    if big_tags:
        blocks = blocks + (np.int64(1) << np.int64(40))
    index_bits = num_sets.bit_length() - 1
    lanes = blocks & np.int64(num_sets - 1)
    tags = blocks >> np.int64(index_bits)
    cores = rng.integers(0, 4, size=length)
    return blocks, lanes, tags, cores


def _reference_cache_replay(num_sets, ways, blocks, cores):
    """Replay through the real cache; return hits, valid mask, owners."""
    geometry = CacheGeometry(
        size_bytes=num_sets * ways * 64, block_bytes=64, ways=ways
    )
    cache = SetAssociativeCache(geometry, lru_factory(), "ref")
    hits = np.zeros(len(blocks), dtype=bool)
    for i, (block, core) in enumerate(zip(blocks.tolist(), cores.tolist())):
        hits[i] = cache.access(block, core, 0, False)
    valid = np.zeros((num_sets, ways), dtype=bool)
    owners = np.zeros((num_sets, ways), dtype=np.int64)
    for set_index, cache_set in enumerate(cache.sets):
        for way in range(ways):
            valid[set_index, way] = cache_set._valid[way]
            if cache_set._valid[way]:
                owners[set_index, way] = cache_set._cores[way]
    return hits, valid, owners


class TestKernelAgainstRealCache:
    """lru_batch == SetAssociativeCache on hits, state, and owners."""

    @pytest.mark.parametrize("num_sets,ways", KERNEL_GEOMETRIES)
    def test_fuzzed_geometries(self, num_sets, ways):
        blocks, lanes, tags, cores = _kernel_inputs(
            num_sets, ways, 4_000, seed=num_sets * 31 + ways
        )
        hits, valid, owners = lru_batch(
            lanes, tags, num_sets, ways, cores=cores
        )
        ref_hits, ref_valid, ref_owners = _reference_cache_replay(
            num_sets, ways, blocks, cores
        )
        assert np.array_equal(hits, ref_hits)
        assert np.array_equal(valid, ref_valid)
        assert np.array_equal(owners[valid], ref_owners[ref_valid])

    def test_int64_cells_forced_by_big_tags(self):
        blocks, lanes, tags, cores = _kernel_inputs(
            32, 5, 3_000, seed=99, big_tags=True
        )
        assert int(tags.max()) > 2**31  # guarantees the int64 cell path
        hits, valid, owners = lru_batch(lanes, tags, 32, 5, cores=cores)
        ref_hits, ref_valid, ref_owners = _reference_cache_replay(
            32, 5, blocks, cores
        )
        assert np.array_equal(hits, ref_hits)
        assert np.array_equal(valid, ref_valid)
        assert np.array_equal(owners[valid], ref_owners[ref_valid])

    @pytest.mark.parametrize("ways", [1, 2])
    def test_low_ways_closed_form_matches_round_kernel(self, ways):
        _, lanes, tags, cores = _kernel_inputs(16, ways, 5_000, seed=7)
        fast_hits, _, _ = lru_batch(lanes, tags, 16, ways)  # closed form
        slow_hits, _, _ = lru_batch(lanes, tags, 16, ways, cores=cores)
        assert np.array_equal(fast_hits, slow_hits)

    def test_empty_stream(self):
        empty = np.zeros(0, dtype=np.int64)
        hits, valid, owners = lru_batch(empty, empty, 8, 4, cores=empty)
        assert hits.shape == (0,)
        assert not valid.any()
        assert owners.shape == (8, 4)

    def test_buffer_pool_reuse_does_not_corrupt_results(self):
        _, lanes, tags, cores = _kernel_inputs(64, 8, 4_000, seed=3)
        first = lru_batch(lanes, tags, 64, 8, cores=cores)
        again = lru_batch(lanes, tags, 64, 8, cores=cores)
        assert np.array_equal(first[0], again[0])
        assert np.array_equal(first[1], again[1])
        assert np.array_equal(first[2], again[2])
        clear_buffer_pool()
        fresh = lru_batch(lanes, tags, 64, 8, cores=cores)
        assert np.array_equal(first[0], fresh[0])

    def test_buffer_pool_stays_bounded_across_batch_lengths(self):
        # The longest batch comes first; shorter ones must reuse its
        # buffers rather than add one set per distinct length.
        inputs = [
            _kernel_inputs(64, 8, length, seed=length)[1:]
            for length in (4_000, 250, 3_000, 1_000, 3_999, 2_000)
        ]
        fresh = []
        for lanes, tags, cores in inputs:
            clear_buffer_pool()
            fresh.append(lru_batch(lanes, tags, 64, 8, cores=cores))
        clear_buffer_pool()
        pool_bytes = []
        for (lanes, tags, cores), want in zip(inputs, fresh):
            got = lru_batch(lanes, tags, 64, 8, cores=cores)
            for got_part, want_part in zip(got, want):
                assert np.array_equal(got_part, want_part)
            pool_bytes.append(sum(buf.nbytes for buf in vector._POOL.values()))
        assert pool_bytes == [pool_bytes[0]] * len(inputs)


class TestKernelAgainstDifferentialOracle:
    """lru_batch in lockstep with the repro.check reference model."""

    @pytest.mark.parametrize("num_sets,ways", [(16, 4), (8, 8), (32, 8)])
    def test_oracle_lockstep(self, num_sets, ways):
        config = dataclasses.replace(
            paper_system_config(2, deli_ways=2),
            llc=CacheGeometry(
                size_bytes=num_sets * ways * 64, block_bytes=64, ways=ways
            ),
        )
        reference = make_reference("lru", config)
        _, lanes, tags, cores = _kernel_inputs(
            num_sets, ways, 4_000, seed=num_sets + ways
        )
        hits, valid, _ = lru_batch(lanes, tags, num_sets, ways, cores=cores)
        for i, (lane, tag, core) in enumerate(
            zip(lanes.tolist(), tags.tolist(), cores.tolist())
        ):
            assert reference.access(lane, tag, core, 0, False) == bool(hits[i])
        for set_index in range(num_sets):
            resident = set(reference.tag_to_way[set_index].values())
            assert int(valid[set_index].sum()) == len(resident)


#: Engine-level fuzz grid: (members, policy, memory_model, warmup).
ENGINE_CASES = [
    (["mcf_like"], "lru", "fixed", 0.25),
    (["mcf_like", "milc_like"], "lru", "fixed", 0.25),
    (["mcf_like", "milc_like", "gcc_like", "hmmer_like"], "lru", "fixed", 0.25),
    (["mcf_like", "milc_like"], "lru", "bandwidth", 0.25),
    (["mcf_like", "milc_like"], "nucache", "fixed", 0.25),
    (["art_like"], "nucache", "fixed", 0.0),
    (["mcf_like", "milc_like", "gcc_like", "hmmer_like"], "ucp", "fixed", 0.25),
    (["art_like", "twolf_like"], "srrip", "fixed", 0.25),
    (["mcf_like", "milc_like"], "lru", "fixed", 0.0),
    # Runs the default engine replays on the hybrid path.
    (list(mix_members("mix8_1")), "nucache", "bandwidth", 0.25),
    (list(mix_members("mix4_2")), "nucache-ucp", "fixed", 0.25),
    (list(mix_members("mix4_3")), "pipp", "fixed", 0.25),
    (list(mix_members("mix4_4")), "tadip", "fixed", 0.0),
    (list(mix_members("mix4_5")), "ship", "fixed", 0.25),
]


def _make_memory_model(config, model):
    if model == "bandwidth":
        return BandwidthLimitedMemory(config.latency.memory, 48)
    return FixedLatencyMemory(config.latency.memory)


class _LoggingMemory(FixedLatencyMemory):
    """Fixed-latency memory that logs the clock of every request.

    Not exactly a ``FixedLatencyMemory``, so a ``VectorEngine`` over it
    replays on the hybrid path.
    """

    def __init__(self, latency):
        super().__init__(latency)
        self.clocks = []

    def service(self, now):
        self.clocks.append(now)
        return super().service(now)


def _run_both(members, policy, memory_model, warmup, accesses=3_000, seed=11):
    config = paper_system_config(len(members))
    traces = make_traces(members, accesses, seed)
    scalar = MulticoreEngine(
        traces, make_llc(policy, config, seed), config,
        _make_memory_model(config, memory_model), warmup_fraction=warmup,
    )
    vector = VectorEngine(
        traces, make_llc(policy, config, seed), config,
        _make_memory_model(config, memory_model), warmup_fraction=warmup,
    )
    return scalar.run(), vector.run(), vector


class TestEngineEquivalence:
    """VectorEngine payloads are byte-identical to the scalar engine."""

    @pytest.mark.parametrize(
        "members,policy,memory_model,warmup", ENGINE_CASES,
        ids=[f"{c[1]}-x{len(c[0])}-{c[2]}-w{c[3]}" for c in ENGINE_CASES],
    )
    def test_fuzzed_configs_byte_identical(
        self, members, policy, memory_model, warmup
    ):
        scalar_result, vector_result, _ = _run_both(
            members, policy, memory_model, warmup
        )
        assert json.dumps(scalar_result.to_dict(), sort_keys=True) == (
            json.dumps(vector_result.to_dict(), sort_keys=True)
        )

    def test_full_vector_path_taken_for_plain_lru(self):
        _, _, vector = _run_both(["mcf_like", "milc_like"], "lru", "fixed", 0.25)
        assert vector.fallback_reason is None

    def test_hybrid_path_taken_for_nucache(self):
        _, _, vector = _run_both(["mcf_like"], "nucache", "fixed", 0.25)
        assert vector.fallback_reason == "hybrid:llc_policy:nucache"

    def test_hybrid_path_taken_for_bandwidth_memory(self):
        _, _, vector = _run_both(["mcf_like", "milc_like"], "lru", "bandwidth", 0.25)
        assert vector.fallback_reason == "hybrid:memory_model"

    @pytest.mark.parametrize("cores", [3, 4, 8])
    @pytest.mark.parametrize(
        "policy,memory_model,fused",
        [
            ("nucache", "fixed", True),
            ("nucache-ucp", "fixed", False),
            ("lru", "bandwidth", False),
        ],
    )
    def test_tied_clocks_replay_in_scalar_order(
        self, policy, memory_model, fused, cores, monkeypatch
    ):
        # Relocated copies of one gap-0 trace keep the cores' clocks
        # tied, so the hybrid replay's (clock, core_id) tie-break decides
        # which core reaches the LLC (and the memory channel) first.  At
        # 3 and 4 cores a schedule key packs the core id in 2 bits, at 8
        # in 3.  A plain NUcache over fixed memory replays in its fused
        # frame, the other two cases in the generic loop.
        frames = _count_nucache_frames(monkeypatch)
        case = fuzz.FuzzCase(policy=policy, cores=cores, ways=max(8, 2 * cores))
        config = fuzz.system_config(case)
        blocks = [(7 * i) % 96 for i in range(1500)]
        pcs = [0x400000 + (i % 9) * 4 for i in range(1500)]
        trace = make_trace(blocks, pcs=pcs, gap=0)
        traces = [trace.relocated(core_id) for core_id in range(case.cores)]
        results = []
        for cls in (MulticoreEngine, VectorEngine):
            engine = cls(
                traces, make_llc(policy, config, case.seed), config,
                _make_memory_model(config, memory_model),
            )
            results.append(json.dumps(engine.run().to_dict(), sort_keys=True))
        assert engine.fallback_reason.startswith("hybrid:")
        assert frames == ([1] if fused else [])
        assert results[0] == results[1]

    @pytest.mark.parametrize(
        "mix,policy,fused", [("mix4_1", "nucache", True), ("mix4_3", "sdbp", False)]
    )
    def test_fixed_memory_counts_the_scalar_requests(
        self, mix, policy, fused, monkeypatch
    ):
        # Over exactly FixedLatencyMemory the replay never calls
        # service(); it adds its miss count to the memory's requests once.
        frames = _count_nucache_frames(monkeypatch)
        members = list(mix_members(mix))
        config = paper_system_config(len(members))
        traces = make_traces(members, 3_000, 11)
        runs = []
        for cls in (MulticoreEngine, VectorEngine):
            memory = FixedLatencyMemory(config.latency.memory)
            engine = cls(
                traces, make_llc(policy, config, 11), config, memory,
                warmup_fraction=0.25,
            )
            runs.append((engine.run().to_dict(), memory.requests))
        assert engine.fallback_reason == f"hybrid:llc_policy:{policy}"
        assert frames == ([1] if fused else [])
        assert runs[0][1] > 0 and runs[0][1] == runs[1][1]
        assert runs[0][0] == runs[1][0]

    @pytest.mark.parametrize(
        "mix,policy", [("mix4_1", "nucache"), ("mix2_1", "lru")]
    )
    def test_hybrid_replay_issues_the_scalar_memory_requests(self, mix, policy):
        # Fixed-latency outcomes barely depend on the interleaving, so
        # equal payloads cannot show a clock error in the replay; the
        # clock of every memory request can.
        members = list(mix_members(mix))
        config = paper_system_config(len(members))
        traces = make_traces(members, 3_000, 11)
        runs = []
        for cls in (MulticoreEngine, VectorEngine):
            memory = _LoggingMemory(config.latency.memory)
            engine = cls(
                traces, make_llc(policy, config, 11), config, memory,
                warmup_fraction=0.25,
            )
            runs.append((engine.run().to_dict(), memory.clocks))
        assert engine.fallback_reason.startswith("hybrid:")
        assert runs[0][1] and runs[0][1] == runs[1][1]
        assert runs[0][0] == runs[1][0]

    def test_oracle_checked_scalar_matches_vector(self, monkeypatch):
        """Lockstep transitively: oracle validates scalar, vector equals it."""
        members, policy = ["mcf_like", "milc_like"], "nucache"
        config = paper_system_config(2)
        traces = make_traces(members, 2_000, 5)
        monkeypatch.setenv("REPRO_CHECK", "access")
        checked = MulticoreEngine(
            traces, make_llc(policy, config, 5), config,
            FixedLatencyMemory(config.latency.memory), warmup_fraction=0.25,
        ).run()
        monkeypatch.delenv("REPRO_CHECK")
        vector = VectorEngine(
            traces, make_llc(policy, config, 5), config,
            FixedLatencyMemory(config.latency.memory), warmup_fraction=0.25,
        ).run()
        assert checked.to_dict() == vector.to_dict()


def _count_nucache_frames(monkeypatch):
    """Count the hybrid replays that take NUcache's fused frame."""
    frames = []
    fused = vector._replay_nucache

    def counting(*args):
        frames.append(1)
        return fused(*args)

    monkeypatch.setattr(vector, "_replay_nucache", counting)
    return frames


def _stream_traces(case):
    """One trace per core from a fuzz case's stream (blocks shared)."""
    stream = fuzz.generate_stream(case)
    return [
        make_trace(
            [block for block, core, _pc, _w in stream if core == cid],
            pcs=[pc for _b, core, pc, _w in stream if core == cid],
            writes=[write for _b, core, _pc, write in stream if core == cid],
            gap=1,
        )
        for cid in range(case.cores)
    ]


def _nucache_state(llc):
    """Everything a NUcache access can change, as comparable values."""
    controller = llc.controller
    profiler = controller.profiler
    stats = llc.stats
    return {
        "sets": [
            (list(s.tag_to_way.items()), s.stack, s.free, s.tags, s.dirty,
             s.cores, s.pcs, s.slots,
             [(tag, e.core, e.pc, e.pc_slot, e.dirty, e.seq)
              for tag, e in s.deli.items()])
            for s in llc.sets
        ],
        "llc": (llc.deli_hits, llc.retentions, llc.promotions, llc.deli_evictions),
        "controller": (
            list(controller._slot_of.items()), controller._slot_keys,
            sorted(controller._selected), list(controller._miss_counts.items()),
            controller._misses_this_epoch, controller._accesses_this_epoch,
            controller._epoch_target, controller._access_target,
            controller.epochs_completed,
        ),
        "profiler": (
            list(profiler._history.items()), profiler._log, profiler._reuses,
            profiler._evictions, profiler._num_slots,
        ),
        "stats": (
            dataclasses.astuple(stats.total),
            [(core, dataclasses.astuple(entry))
             for core, entry in stats.per_core.items()],
        ),
    }


#: NUcache settings the fused frame must replay as ``access`` does: the
#: defaults, the fuzz grid's variants, and no DeliWays (the probe's).
FRAME_VARIANTS = [{}, *fuzz.NUCACHE_VARIANTS, {"deli_ways": 0}]


class TestNUcacheReplayFrame:
    """NUcache's fused replay frame in lockstep with the generic loop."""

    def _replay(self, case, frame, monkeypatch):
        """One hybrid run through ``frame``, or through the generic loop
        when it is ``None``; returns outcomes, end state and rotations."""
        config = fuzz.system_config(case)
        llc = make_llc("nucache", config, case.seed)
        rotations = []
        llc.controller.on_rotate = lambda controller: rotations.append(
            (llc.snapshot_counters(), _nucache_state(llc))
        )
        outcomes = []

        def replay(llc, schedule, stream, lat_llc, lat_mem):
            if frame is not None:
                frame(llc, schedule, stream, lat_llc, lat_mem)
            else:
                vector._replay_llc(
                    llc.access, None, schedule, stream, None, lat_llc, lat_mem
                )
            outcomes.append(bytes(stream[3]))

        monkeypatch.setattr(vector, "_replay_nucache", replay)
        memory = FixedLatencyMemory(config.latency.memory)
        engine = VectorEngine(_stream_traces(case), llc, config, memory)
        payload = engine.run().to_dict()
        assert engine.fallback_reason == "hybrid:llc_policy:nucache"
        return outcomes, payload, memory.requests, _nucache_state(llc), rotations

    @pytest.mark.parametrize("cores", [1, 2, 4])
    @pytest.mark.parametrize(
        "variant", FRAME_VARIANTS,
        ids=[",".join(f"{k}={v}" for k, v in v.items()) or "default"
             for v in FRAME_VARIANTS],
    )
    def test_frame_matches_the_access_calls(self, variant, cores, monkeypatch):
        case = fuzz.FuzzCase(policy="nucache", cores=cores, accesses=3_000, **variant)
        frame = self._replay(case, vector._replay_nucache, monkeypatch)
        generic = self._replay(case, None, monkeypatch)
        outcomes, _, _, state, rotations = frame
        assert len(outcomes) == 1 and outcomes[0].count(1)
        assert len(rotations) >= 4
        assert len(state["stats"][1]) == cores
        for got, want in zip(frame, generic):
            assert got == want

    def test_traced_checked_run_matches_the_scalar_epochs(
        self, tmp_path, monkeypatch
    ):
        # Epoch checks run inside the frame's rotations, so they see its
        # counters only if the frame stores them back first; retained
        # DeliWay lines make the retention law bite.
        frames = _count_nucache_frames(monkeypatch)
        monkeypatch.setenv(CHECK_ENV_VAR, "epoch")
        case = fuzz.FuzzCase(policy="nucache", cores=2, accesses=4_000)
        config = fuzz.system_config(case)
        runs = []
        for cls in (MulticoreEngine, VectorEngine):
            engine = cls(
                _stream_traces(case), make_llc("nucache", config, case.seed),
                config, FixedLatencyMemory(config.latency.memory),
            )
            llc = engine.llc
            resident = []
            rotate = llc.controller.rotate

            def recording_rotate(remap, llc=llc, rotate=rotate, resident=resident):
                resident.append(sum(len(s.deli) for s in llc.sets))
                return rotate(remap)

            llc.controller.rotate = recording_rotate
            payload, records = _traced_run(engine, tmp_path / cls.__name__)
            epochs = [
                (r["epoch"], r["selected"])
                for r in records if r["name"] == "nucache.epoch"
            ]
            runs.append((payload, epochs, resident))
        assert engine.fallback_reason == "hybrid:llc_policy:nucache"
        assert frames == [1]
        assert runs[0] == runs[1]
        payload, epochs, resident = runs[1]
        assert len(epochs) >= 4
        assert any(count > 0 for count in resident[1:])


class TestFallbackTriggers:
    """Unvectorized features delegate to the scalar loop, identically."""

    def _engines(self, prefetcher=None, members=("mcf_like",)):
        config = paper_system_config(len(members))
        traces = make_traces(list(members), 2_000, 3)
        def build(cls):
            prefetchers = None
            if prefetcher is not None:  # fresh instances: prefetchers are stateful
                prefetchers = [make_prefetcher(prefetcher) for _ in members]
            return cls(
                traces, make_llc("lru", config, 3), config,
                FixedLatencyMemory(config.latency.memory),
                warmup_fraction=0.25, prefetchers=prefetchers,
            )

        return build(MulticoreEngine), build(VectorEngine)

    def test_prefetchers_fall_back_to_scalar(self):
        scalar, vector = self._engines(prefetcher="stride")
        assert scalar.run().to_dict() == vector.run().to_dict()
        assert vector.fallback_reason == "scalar:prefetchers"

    def test_traced_fallback_records_one_run_with_its_reason(self, tmp_path):
        _, vector = self._engines(prefetcher="stride")
        _, records = _traced_run(vector, tmp_path)
        ends = [(r["name"], r["path"]) for r in records if r["type"] == "end"]
        assert ends == [("sim.run", "scalar:prefetchers")]
        assert [r["phase"] for r in records if r["name"] == "sim.phase"] == ["loop"]

    def test_access_checker_falls_back_to_scalar(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK", "access")
        scalar, vector = self._engines()
        assert scalar.run().to_dict() == vector.run().to_dict()
        assert vector.fallback_reason == "scalar:checker"

    def test_epoch_checker_without_controller_falls_back_to_scalar(
        self, monkeypatch
    ):
        # An LRU LLC has no epochs: its checks count engine steps.
        monkeypatch.setenv("REPRO_CHECK", "epoch")
        scalar, vector = self._engines(members=("mcf_like", "milc_like"))
        assert scalar.run().to_dict() == vector.run().to_dict()
        assert vector.fallback_reason == "scalar:checker"


def _nucache_mix():
    """A 4-core NUcache VectorEngine run long enough for several epochs."""
    config = paper_system_config(4)
    traces = make_traces(list(mix_members("mix4_1")), 3_000, 11)
    return VectorEngine(
        traces, make_llc("nucache", config, 11), config, warmup_fraction=0.25
    )


def _traced_run(engine, tmp_path):
    """Run ``engine`` under a tracer; returns its payload and the records."""
    tracer = Tracer(tmp_path / "t.jsonl")
    set_tracer(tracer)
    try:
        payload = engine.run().to_dict()
    finally:
        set_tracer(None)
        tracer.close()
    lines = tracer.path.read_text(encoding="utf-8").splitlines()
    return payload, [json.loads(line) for line in lines]


class TestObservedRuns:
    """A traced or epoch-checked run takes the path an unobserved one takes."""

    def test_traced_nucache_mix_stays_hybrid(self, tmp_path):
        plain = _nucache_mix().run().to_dict()
        engine = _nucache_mix()
        traced, records = _traced_run(engine, tmp_path)
        assert engine.fallback_reason == "hybrid:llc_policy:nucache"
        assert traced == plain
        ends = [(r["name"], r["path"]) for r in records if r["type"] == "end"]
        assert ends == [("sim.run", "hybrid:llc_policy:nucache")]
        phases = [r["phase"] for r in records if r["name"] == "sim.phase"]
        assert phases == ["private", "replay", "collect"]
        (replay,) = [r for r in records if r.get("phase") == "replay"]
        assert replay["accesses"] == engine.llc.stats.total.accesses > 0
        controller = engine.llc.controller
        epochs = [r["epoch"] for r in records if r["name"] == "nucache.epoch"]
        assert epochs == list(range(1, controller.epochs_completed + 1))
        assert len(epochs) >= 2
        assert controller.on_rotate is None  # held for the run only

    def test_traced_unconverged_solve_reports_both_stages(self, tmp_path, monkeypatch):
        monkeypatch.setattr(vector, "MAX_FIXED_POINT_ITERATIONS", 1)
        config = paper_system_config(2)
        traces = make_traces(["mcf_like", "milc_like"], 3_000, 11)
        plain = MulticoreEngine(traces, make_llc("lru", config, 11), config).run()
        engine = VectorEngine(traces, make_llc("lru", config, 11), config)
        traced, records = _traced_run(engine, tmp_path)
        assert engine.fallback_reason == "hybrid:fixed_point_not_converged"
        assert traced == plain.to_dict()
        stages = [
            (r["phase"], r.get("iterations"))
            for r in records if r["name"] == "sim.phase"
        ]
        assert stages == [
            ("private", None), ("solve", 1), ("replay", None), ("collect", None)
        ]

    def test_epoch_checked_nucache_mix_stays_hybrid(self, monkeypatch):
        plain = _nucache_mix().run().to_dict()
        monkeypatch.setenv(CHECK_ENV_VAR, "epoch")
        engine = _nucache_mix()
        assert engine.run().to_dict() == plain
        assert engine.fallback_reason == "hybrid:llc_policy:nucache"
        corrupted = _nucache_mix()
        corrupted.llc.stats.total.hits += 1
        with pytest.raises(InvariantViolation) as caught:
            corrupted.run()
        assert caught.value.context == "epoch 1 boundary"
        assert corrupted.fallback_reason == "hybrid:llc_policy:nucache"
        assert corrupted.llc.controller.on_rotate is None


class TestEngineSelection:
    """resolve_engine_mode / make_engine honor flag, env, and default."""

    @pytest.mark.parametrize(
        "policy,memory_model,prefetcher,cores,expected",
        [
            ("lru", "fixed", None, 2, VectorEngine),
            ("nucache", "fixed", None, 2, VectorEngine),
            ("tadip", "fixed", None, 2, VectorEngine),
            ("lru", "bandwidth", None, 2, VectorEngine),
            ("lru", "fixed", "stride", 2, MulticoreEngine),
            ("nucache", "fixed", None, 1, MulticoreEngine),
        ],
    )
    def test_default_batches_exactly_the_batchable_runs(
        self, policy, memory_model, prefetcher, cores, expected, monkeypatch
    ):
        # Every multicore run without a prefetcher replays on the vector
        # engine (fully batched or hybrid); a single-core run does only
        # when it batches entirely.
        monkeypatch.delenv(ENGINE_ENV, raising=False)
        assert resolve_engine_mode() is None
        config = paper_system_config(cores)
        traces = make_traces(["mcf_like", "milc_like"][:cores], 1_200, 1)
        prefetchers = None
        if prefetcher is not None:
            prefetchers = [make_prefetcher(prefetcher) for _ in traces]
        engine = make_engine(
            traces, make_llc(policy, config, 1), config,
            _make_memory_model(config, memory_model), prefetchers=prefetchers,
        )
        assert type(engine) is expected

    def test_env_selects_vector(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "vector")
        assert resolve_engine_mode() == "vector"

    def test_explicit_overrides_env(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "vector")
        assert resolve_engine_mode("scalar") == "scalar"

    def test_unknown_mode_rejected(self):
        with pytest.raises(SimulationError):
            resolve_engine_mode("simd")

    @pytest.mark.parametrize(
        "mode,expected", [("scalar", MulticoreEngine), ("vector", VectorEngine)]
    )
    def test_make_engine_classes(self, mode, expected, monkeypatch):
        # A requested mode forces the class, batchable run (lru) or not.
        config = paper_system_config(1)
        traces = make_traces(["mcf_like"], 1_200, 1)
        for policy in ("lru", "nucache"):
            monkeypatch.delenv(ENGINE_ENV, raising=False)
            engine = make_engine(
                traces, make_llc(policy, config, 1), config,
                FixedLatencyMemory(config.latency.memory), mode=mode,
            )
            assert type(engine) is expected
            monkeypatch.setenv(ENGINE_ENV, mode)
            engine = make_engine(traces, make_llc(policy, config, 1), config)
            assert type(engine) is expected


class TestMemoryHygiene:
    """A batched run leaves no scratch memory, per-access lists or private
    caches behind: the cores' L1 and L2 objects are built only for a core
    that steps, and a plain-LRU LLC's sets only for a run that reads
    them."""

    def test_default_lru_mix_releases_pool_and_builds_no_lists(self, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV, raising=False)
        built = []

        def recording_make_engine(*args, **kwargs):
            built.append(make_engine(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(runner, "make_engine", recording_make_engine)
        runner.run_mix("mix4_1", "lru", accesses=3_000)
        (engine,) = built
        assert type(engine) is VectorEngine and engine.fallback_reason is None
        assert not vector._POOL
        assert all(core._blocks is None for core in engine.cores)
        assert all(core.l1 is None and core.l2 is None for core in engine.cores)
        # The kernel resolved the LLC: its CacheSet list was never built.
        assert not isinstance(engine.llc.sets, list)

    def test_default_nucache_mix_replays_without_scalar_lists(self, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV, raising=False)
        built = []

        def recording_make_engine(*args, **kwargs):
            built.append(make_engine(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(runner, "make_engine", recording_make_engine)
        runner.run_mix("mix4_1", "nucache", accesses=3_000)
        (engine,) = built
        assert type(engine) is VectorEngine
        assert engine.fallback_reason == "hybrid:llc_policy:nucache"
        assert not vector._POOL
        assert all(core._blocks is None for core in engine.cores)
        assert all(core.l1 is None and core.l2 is None for core in engine.cores)


class TestStoreKeyRegression:
    """Engine choice must not move results in the content-addressed store.

    Both backends produce byte-identical payloads (tests above), so
    sharing entries is sound — and therefore the key must not encode
    the backend, and ``ENGINE_VERSION`` stays untouched.
    """

    def test_key_independent_of_engine_env(self, monkeypatch):
        job = SimJob.mix("mix2_1", "nucache", 50_000)
        monkeypatch.delenv(ENGINE_ENV, raising=False)
        scalar_key = job.key()
        monkeypatch.setenv(ENGINE_ENV, "vector")
        assert SimJob.mix("mix2_1", "nucache", 50_000).key() == scalar_key
