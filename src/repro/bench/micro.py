"""Micro benchmarks of the simulator's per-access hot paths.

Each case isolates one kernel the engine executes millions of times per
experiment, replays a deterministic pre-generated stream against it, and
times only the access loop (setup — trace generation, cache
construction — happens outside the measured region).  Streams are
derived from fixed seeds so two runs of a case perform bit-identical
work, which is what makes ``ops`` comparable across payloads.

Cases accept an ``ops_scale`` so tests can shrink them; the floor keeps
a scaled case large enough that ``perf_counter`` resolution is noise.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

#: Lower bound on measured operations after ``ops_scale`` is applied.
MIN_OPS = 1_000


@dataclass
class BenchCase:
    """One timed kernel: a name, its op count, and a repetition runner.

    Attributes:
        name: stable identifier used in payloads and comparisons.
        ops: operations performed by one repetition (deterministic).
        unit: what one op is ("accesses", "events", ...).
        run_once: executes one repetition and returns the measured
            wall-clock seconds of the kernel loop only.
    """

    name: str
    ops: int
    unit: str
    run_once: Callable[[], float]


def _scaled(default: int, quick_default: int, quick: bool, ops_scale: float) -> int:
    """Resolve a case's op count from mode and scale."""
    base = quick_default if quick else default
    return max(MIN_OPS, int(base * ops_scale))


def _mixed_stream(
    num_ops: int, num_blocks: int, seed: int
) -> Tuple[List[int], List[bool]]:
    """Deterministic block/write stream with a moderate hit/miss mix."""
    import numpy as np

    rng = np.random.default_rng(seed)
    blocks = rng.integers(0, num_blocks, size=num_ops).tolist()
    writes = (rng.random(num_ops) < 0.1).tolist()
    return blocks, writes


def lru_access_case(quick: bool = False, ops_scale: float = 1.0) -> BenchCase:
    """Raw set-associative LRU cache access (the substrate's hot loop).

    A 256-set, 8-way cache (2048 lines) replays a uniform stream over a
    4096-block footprint — twice the capacity, so hits and misses (and
    therefore evictions) all stay on the measured path.
    """
    from repro.cache.cache import SetAssociativeCache
    from repro.cache.replacement.basic import lru_factory
    from repro.common.config import CacheGeometry

    num_ops = _scaled(240_000, 60_000, quick, ops_scale)
    geometry = CacheGeometry(size_bytes=256 * 8 * 64, block_bytes=64, ways=8)
    blocks, writes = _mixed_stream(num_ops, 4096, seed=20110211)

    def run_once() -> float:
        cache = SetAssociativeCache(geometry, lru_factory(), "bench-lru")
        cache.build_sets()  # built on first use otherwise: keep it untimed
        access = cache.access
        start = time.perf_counter()
        for block, write in zip(blocks, writes):
            access(block, 0, 0, write)
        return time.perf_counter() - start

    return BenchCase("lru_access", num_ops, "accesses", run_once)


def nucache_access_case(quick: bool = False, ops_scale: float = 1.0) -> BenchCase:
    """NUcache MainWay/DeliWay access on a realistic delinquent trace.

    Replays an ``art_like`` trace (delinquent-PC heavy, so the DeliWay
    retention/promotion machinery and the epoch controller all run)
    straight into a paper-configured NUcache LLC.
    """
    from repro.common.addr import log2_exact
    from repro.common.config import paper_system_config
    from repro.sim.policies import make_llc
    from repro.workloads.spec_like import benchmark
    from repro.workloads.synthetic import generate_trace

    num_ops = _scaled(120_000, 30_000, quick, ops_scale)
    config = paper_system_config(1)
    trace = generate_trace(benchmark("art_like"), num_ops, seed=20110211)
    shift = log2_exact(config.block_bytes)
    blocks = (trace.addresses >> shift).tolist()
    pcs = trace.pcs.tolist()
    writes = trace.is_write.tolist()

    def run_once() -> float:
        llc = make_llc("nucache", config, seed=20110211)
        access = llc.access
        start = time.perf_counter()
        for block, pc, write in zip(blocks, pcs, writes):
            access(block, 0, pc, write)
        return time.perf_counter() - start

    return BenchCase("nucache_access", num_ops, "accesses", run_once)


def nextuse_update_case(quick: bool = False, ops_scale: float = 1.0) -> BenchCase:
    """Next-Use profiler update (the eviction/reuse monitor feed).

    Drives :class:`repro.nucache.nextuse.NextUseProfiler` with a
    deterministic interleaving of evictions and reuses of recently
    evicted blocks — the exact call mix NUcache makes per miss — and
    closes the epoch with ``finish_epoch()`` inside the timed region,
    since that is where the profiler derives the events' delta vectors.
    """
    import numpy as np

    from repro.nucache.nextuse import NextUseProfiler

    num_ops = _scaled(200_000, 50_000, quick, ops_scale)
    rng = np.random.default_rng(20110211)
    kinds = (rng.random(num_ops) < 0.6).tolist()  # True = eviction
    addrs = rng.integers(0, 8192, size=num_ops).tolist()
    slots = rng.integers(0, 16, size=num_ops).tolist()

    def run_once() -> float:
        profiler = NextUseProfiler(history_capacity=2048)
        profiler.begin_epoch(16)
        on_eviction = profiler.on_eviction
        on_reuse = profiler.on_reuse
        start = time.perf_counter()
        for is_eviction, addr, slot in zip(kinds, addrs, slots):
            if is_eviction:
                on_eviction(addr & 1023, addr, slot)
            else:
                on_reuse(addr & 1023, addr)
        profiler.finish_epoch()
        return time.perf_counter() - start

    return BenchCase("nextuse_update", num_ops, "events", run_once)


def _vector_kernel_case(
    name: str,
    num_sets: int,
    ways: int,
    footprint: int,
    quick: bool,
    ops_scale: float,
) -> BenchCase:
    """Build a batch-kernel case over one cache geometry.

    Times :func:`repro.sim.vector.lru_batch` on a deterministic uniform
    stream covering twice the cache's capacity (same recipe as
    ``lru_access``), so hits, misses and evictions all stay on the
    measured path.  Quick mode keeps the full op count: the kernel is
    fast enough that shrinking it would only add timer noise.
    """
    import numpy as np

    num_ops = _scaled(240_000, 240_000, quick, ops_scale)
    rng = np.random.default_rng(20110211)
    blocks = rng.integers(0, footprint, size=num_ops)
    lanes = blocks & np.int64(num_sets - 1)
    tags = blocks >> np.int64(num_sets.bit_length() - 1)

    def run_once() -> float:
        from repro.sim.vector import lru_batch

        start = time.perf_counter()
        lru_batch(lanes, tags, num_sets, ways)
        return time.perf_counter() - start

    return BenchCase(name, num_ops, "accesses", run_once)


def vector_lru_access_case(quick: bool = False, ops_scale: float = 1.0) -> BenchCase:
    """Batch LRU kernel on the 8-core paper LLC shape (2048 sets, 16 ways).

    The vector engine's LLC-resolution workload: one whole-trace kernel
    call instead of per-access python dispatch.  The ratio of this
    case's throughput to ``lru_access`` is the headline scalar-vs-vector
    speedup recorded in ``docs/kernels.md``.
    """
    return _vector_kernel_case(
        "vector_lru_access", 2048, 16, 65536, quick, ops_scale
    )


def vector_lru_access_small_case(
    quick: bool = False, ops_scale: float = 1.0
) -> BenchCase:
    """Batch LRU kernel on ``lru_access``'s own geometry (256 sets, 8 ways).

    Same sets/ways/footprint/stream recipe as the scalar case, so the
    two cases are a like-for-like comparison of per-access dispatch
    against batched rounds on identical work.
    """
    return _vector_kernel_case(
        "vector_lru_access_small", 256, 8, 4096, quick, ops_scale
    )


#: Registry of micro cases: name -> builder(quick, ops_scale).
MICRO_CASES: Dict[str, Callable[..., BenchCase]] = {
    "lru_access": lru_access_case,
    "nucache_access": nucache_access_case,
    "nextuse_update": nextuse_update_case,
    "vector_lru_access": vector_lru_access_case,
    "vector_lru_access_small": vector_lru_access_small_case,
}
