"""Vectorized (numpy batch) engine backend.

This module is the second full implementation of the simulation engine:
instead of stepping one access at a time through python objects
(:class:`~repro.sim.engine.MulticoreEngine`), it simulates whole traces
as numpy batches — set-index bucketing of the access stream,
array-resident tag/LRU-sequence/owner state per set, and per-round
scatter/gather updates.  On LRU hierarchies it is an order of magnitude
faster than the scalar engine while producing **byte-identical**
:class:`~repro.sim.engine.SimResult` payloads.

Selection
---------

The backend is chosen per run by ``make_engine(...)``.  An explicit
mode — the ``mode`` argument, else the ``REPRO_ENGINE`` environment
variable (inherited by scheduler worker processes) — forces the class:
``"vector"`` builds a :class:`VectorEngine`, ``"scalar"`` a plain
:class:`~repro.sim.engine.MulticoreEngine`.  With neither set, a run
with a prefetcher takes the scalar engine, and of the rest:

* every multicore run builds a :class:`VectorEngine`: a plain-LRU LLC
  over fixed-latency memory batches entirely, any other LLC or memory
  model replays on the hybrid path;
* a single-core run builds a :class:`VectorEngine` only when it batches
  entirely (plain LRU, fixed-latency memory) and the scalar engine
  otherwise.

Equivalence strategy (see ``docs/kernels.md`` for the full argument)
--------------------------------------------------------------------

* Trace addresses carry no timing feedback, so each core's private
  L1/L2 hit/miss masks are precomputable with the batch LRU kernel.
* For a single core, LLC accesses arrive in stream order regardless of
  latencies, so one more kernel pass resolves the LLC.
* For multiple cores over a plain-LRU LLC and fixed-latency memory, the
  interleaving at the LLC depends on per-access latencies which depend
  on LLC outcomes.  :class:`VectorEngine` solves this as a fixed point:
  guess outcomes, derive each access's schedule key, sort, re-simulate,
  repeat until the outcome vector is stable.  A converged assignment is
  *self-consistent*, and the only self-consistent assignment is the
  scalar engine's trajectory (induction over global key order), so a
  converged solve is provably byte-identical.  If the solve does not
  converge the engine falls back to the hybrid path below — the real
  LLC object is untouched until convergence, so the fallback is clean.
* Anything the batch kernel does not model — non-LRU LLC organizations
  (NUcache, UCP, PIPP, ...), bandwidth-limited memory — runs on the
  *hybrid* path: private levels stay vectorized, and the surviving LLC
  accesses drive the real LLC object one at a time in the exact global
  order the scalar engine would produce, ordered by the same
  ``(clock, core_id)`` heap as the scalar engine's fast loop.
* Prefetchers, resumed cores and a check cadence that counts engine
  steps (``REPRO_CHECK=access``, or ``epoch`` without an epoch
  controller) fall back to the scalar loop entirely;
  :attr:`VectorEngine.fallback_reason` records why.  Tracing and epoch
  checks keep the path (:class:`~repro.sim.engine.RunWatch`).
"""

from __future__ import annotations

import math
import os
from array import array
from heapq import heapify, heappop, heapreplace
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
from numpy.typing import DTypeLike

from repro.cache.cache import (
    LEVEL_L1,
    LEVEL_L2,
    LEVEL_LLC,
    LEVEL_MEMORY,
    LastLevelCache,
    SetAssociativeCache,
)
from repro.common.addr import log2_exact
from repro.common.config import SystemConfig
from repro.common.errors import SimulationError
from repro.common.stats import AccessStats
from repro.nucache.organization import NUCache, _DeliEntry
from repro.prefetch.prefetchers import Prefetcher
from repro.sim.engine import CoreResult, MulticoreEngine, RunWatch, SimResult
from repro.sim.memory import FixedLatencyMemory
from repro.workloads.trace import Trace

#: Environment variable naming the engine backend for a run.
ENGINE_ENV = "REPRO_ENGINE"

#: Recognized engine backend names.
ENGINE_MODES = ("scalar", "vector")

#: Iteration cap of the multicore fixed-point LLC solve.  Measured on
#: the paper's mixes: 2–6 iterations at 10,000 accesses per core
#: (``REPRO_SCALE=0.05``); at full length (120,000) 3–30 at 4 cores and
#: 8–30 at 8, and 7 of 64 full-length runs hit the cap.  A run that
#: hits it falls back to the (still byte-identical) hybrid path.
MAX_FIXED_POINT_ITERATIONS = 30


def resolve_engine_mode(explicit: Optional[str] = None) -> Optional[str]:
    """Resolve the engine backend name requested for a run.

    Args:
        explicit: mode requested programmatically (CLI flag); overrides
            the environment when not ``None``.

    Returns:
        One of :data:`ENGINE_MODES`, or ``None`` when neither
        ``explicit`` nor ``REPRO_ENGINE`` names one (the per-run
        default of :func:`make_engine`).

    Raises:
        SimulationError: if the requested mode is unknown.
    """
    mode = explicit if explicit is not None else os.environ.get(ENGINE_ENV, "")
    mode = (mode or "").strip().lower()
    if not mode:
        return None
    if mode not in ENGINE_MODES:
        raise SimulationError(
            f"unknown engine mode {mode!r}; use one of {ENGINE_MODES}"
        )
    return mode


def make_engine(
    traces: Sequence[Trace],
    llc: LastLevelCache,
    config: SystemConfig,
    memory: Optional[FixedLatencyMemory] = None,
    warmup_fraction: float = 0.0,
    prefetchers: Optional[Sequence[Optional[Prefetcher]]] = None,
    mode: Optional[str] = None,
) -> MulticoreEngine:
    """Build the engine backend selected by ``mode``/``REPRO_ENGINE``.

    Drop-in replacement for constructing
    :class:`~repro.sim.engine.MulticoreEngine` directly: the returned
    object has the same interface, and the vector backend guarantees
    byte-identical results (falling back internally where needed).
    With no mode requested, a run without a prefetcher gets the vector
    backend when it has more than one core (batched or hybrid) or
    batches entirely (see :func:`_lru_batchable`); every other run —
    single-core non-LRU or bandwidth-memory runs and prefetcher runs —
    keeps the scalar loop.
    """
    resolved = resolve_engine_mode(mode)
    if resolved is None:
        vectorizes = (len(traces) > 1 or _lru_batchable(llc, memory)) and (
            prefetchers is None or all(p is None for p in prefetchers)
        )
        resolved = "vector" if vectorizes else "scalar"
    cls = VectorEngine if resolved == "vector" else MulticoreEngine
    return cls(
        traces, llc, config, memory,
        warmup_fraction=warmup_fraction, prefetchers=prefetchers,
    )


def _lru_batchable(
    llc: LastLevelCache, memory: Optional[FixedLatencyMemory]
) -> bool:
    """Whether the LLC and memory resolve entirely in numpy.

    True for a plain-LRU :class:`~repro.cache.cache.SetAssociativeCache`
    in front of fixed-latency memory (``None`` is the engine's default,
    fixed-latency memory); anything else needs the hybrid path.
    """
    return (
        type(llc) is SetAssociativeCache
        and llc._plain_lru
        and (memory is None or type(memory) is FixedLatencyMemory)
    )


# ---------------------------------------------------------------------------
# Batch LRU kernel
# ---------------------------------------------------------------------------

#: Reusable scratch arrays: one flat buffer per (role, dtype), grown to
#: the largest size requested, so kernel calls reuse allocations instead
#: of page-faulting fresh ones and the pool stays bounded however many
#: batch lengths a run sees.  :meth:`VectorEngine.run` empties it when
#: it returns, and the hybrid replay before it starts, so neither a
#: finished run nor a replay pins scratch memory.  Results never alias
#: pool memory.
_POOL: Dict[Tuple[str, str], np.ndarray] = {}


def clear_buffer_pool() -> None:
    """Drop the kernel's scratch-buffer pool (tests and memory hygiene)."""
    _POOL.clear()


def _buf(role: str, shape: Union[int, Tuple[int, int]], dtype: DTypeLike) -> np.ndarray:
    """A pooled scratch array of ``shape``. Contents undefined."""
    size = math.prod(shape) if isinstance(shape, tuple) else shape
    key = (role, str(dtype))
    buffer = _POOL.get(key)
    if buffer is None or buffer.size < size:
        buffer = np.empty(size, dtype=dtype)
        _POOL[key] = buffer
    return buffer[:size].reshape(shape)


def lru_batch(
    lanes: np.ndarray,
    tags: np.ndarray,
    num_lanes: int,
    ways: int,
    cores: Optional[np.ndarray] = None,
    need_state: bool = False,
) -> Tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]:
    """Simulate LRU set-associative caches over a whole access batch.

    Semantically equivalent to replaying ``(lanes[i], tags[i])`` in
    order through per-lane LRU sets of ``ways`` ways starting empty —
    exactly what :class:`~repro.cache.cache.SetAssociativeCache` with
    the plain LRU policy does — but executed as a *set-parallel round
    schedule*: accesses are bucketed by lane, and round ``r`` processes
    the ``r``-th access of every lane at once with array operations.
    Rounds are sequential (LRU state carries between them); lanes are
    independent, which is what makes each round vectorizable.

    State is held transposed as ``[ways, lanes]`` arrays of packed
    integers.  A tag cell packs ``tag << (wbits+1) | way`` so a single
    xor against the probe yields ``way`` on a match and a value ``>=
    2*wspan`` otherwise; a recency cell packs ``seq << (wbits+1) |
    wspan | way`` so a plain column ``min`` yields the LRU victim with
    its way index (and a discriminating bias bit) in the low bits.
    Column minima replace arg-reductions, which are an order of
    magnitude slower in numpy along either axis.  Cells use int32 when
    the packed values fit, halving memory traffic.

    Free ways are consumed in ascending order and a line's owner is set
    only when it is allocated, matching
    :meth:`repro.cache.set_.CacheSet` byte for byte (verified by the
    kernel equivalence tests).

    Args:
        lanes: int array of lane (set) indices, one per access, each in
            ``[0, num_lanes)``.
        tags: int array of tag values, one per access (non-negative).
        num_lanes: total number of independent LRU sets.
        ways: associativity of every set.
        cores: optional per-access owner ids; enables owner tracking
            (implies ``need_state``).
        need_state: also return the final valid mask (and owners when
            ``cores`` is given).

    Returns:
        ``(hits, valid, owners)`` — ``hits`` is a bool array aligned
        with the input; ``valid``/``owners`` are ``[num_lanes, ways]``
        arrays of the final state (``None`` when not requested).
    """
    n = int(lanes.shape[0])
    track = cores is not None
    need_state = need_state or track
    if n == 0:
        valid = np.zeros((num_lanes, ways), dtype=bool) if need_state else None
        owners = np.zeros((num_lanes, ways), dtype=np.int64) if track else None
        return np.zeros(0, dtype=bool), valid, owners
    if ways <= 2 and not need_state:
        return _lru_low_ways(lanes, tags, num_lanes, ways), None, None

    counts = np.bincount(lanes, minlength=num_lanes)
    rounds = int(counts.max())
    wbits = max(1, int(ways - 1).bit_length())
    shift = wbits + 1
    wspan = 1 << wbits
    tag_max = int(tags.max())
    use32 = (max(tag_max + 2, rounds + ways + 1) << shift) < 2**31
    cell = np.int32 if use32 else np.int64
    sentinel = (1 << ((31 if use32 else 63) - shift)) - 1
    t = tags
    if tag_max >= sentinel:  # pragma: no cover - needs ~2^58 tag values
        t = np.unique(tags, return_inverse=True)[1].astype(np.int64)

    # Columns ordered by descending bucket size so round r only touches
    # the leading `active[r]` columns (a shrinking contiguous prefix).
    lane_order = np.argsort(-counts, kind="stable")
    small_lanes = num_lanes <= 32767
    col_of_lane = np.empty(num_lanes, dtype=np.int16 if small_lanes else np.int64)
    col_of_lane[lane_order] = np.arange(num_lanes, dtype=col_of_lane.dtype)
    cols = col_of_lane[lanes]
    # int16 keys take numpy's radix path — ~7x faster than int64 here.
    perm = np.argsort(cols, kind="stable")
    counts_sorted = counts[lane_order]
    col_starts = np.zeros(num_lanes, dtype=np.int64)
    np.cumsum(counts_sorted[:-1], out=col_starts[1:])
    hist = np.bincount(counts_sorted, minlength=rounds + 1)
    active = (num_lanes - np.cumsum(hist)[:rounds]).astype(np.int64)
    row_starts = np.zeros(rounds + 1, dtype=np.int64)
    np.cumsum(active, out=row_starts[1:])

    # Round-major position of each access, computed directly (no second
    # argsort): round r's segment holds active columns 0..a-1 in column
    # order, so an access with within-lane rank r in column c lands at
    # row_starts[r] + c.
    cols_sorted = cols[perm]
    rank = np.arange(n, dtype=np.int64)
    rank -= col_starts[cols_sorted]
    rm_pos = row_starts[rank]
    rm_pos += cols_sorted
    pos = _buf("pos", n, np.int64)
    pos[perm] = rm_pos
    probes = _buf("probes", n, cell)
    probes[pos] = (t.astype(np.int64) << np.int64(shift)).astype(cell, copy=False)
    cores_rm = None
    if track:
        cores_rm = _buf("cores", n, np.int64)
        cores_rm[pos] = cores

    lanes_n, ways_n = num_lanes, ways
    tag_state = _buf("T", (ways_n, lanes_n), cell)
    tag_state[:] = np.arange(ways_n, dtype=cell)[:, None]
    tag_state += cell(sentinel << shift)
    seq_state = _buf("Q", (ways_n, lanes_n), cell)
    way_ids = np.arange(ways_n, dtype=cell)
    seq_state[:] = ((way_ids << cell(shift)) | cell(wspan) | way_ids)[:, None]
    tag_flat = tag_state.reshape(-1)
    seq_flat = seq_state.reshape(-1)
    owner_flat = None
    owner_state = None
    if track:
        owner_state = _buf("O", (ways_n, lanes_n), np.int64)
        owner_state[:] = 0
        owner_flat = owner_state.reshape(-1)

    hits_rm = _buf("hits", n, bool)
    xor_scratch = _buf("D", (ways_n, lanes_n), cell)
    m_buf = _buf("m", lanes_n, cell)
    m2_buf = _buf("m2", lanes_n, cell)
    vw_buf = _buf("vw", lanes_n, cell)
    way_buf = _buf("way", lanes_n, cell)
    hit_buf = _buf("hit", lanes_n, bool)
    flat_buf = _buf("flat", lanes_n, np.int64)
    val_buf = _buf("val", lanes_n, cell)
    qv_buf = _buf("qv", lanes_n, cell)
    col_ids = np.arange(lanes_n, dtype=np.int64)
    wspan_c = cell(wspan)
    vmask_c = cell(2 * wspan - 1)
    wmask_c = cell(wspan - 1)
    active_list = active.tolist()
    starts_list = row_starts.tolist()
    for r in range(rounds):
        a = active_list[r]
        lo = starts_list[r]
        hi = lo + a
        probe = probes[lo:hi]
        diff = xor_scratch[:, :a]
        np.bitwise_xor(tag_state[:, :a], probe[None, :], out=diff)
        m = diff.min(axis=0, out=m_buf[:a])
        hit = np.less(m, wspan_c, out=hit_buf[:a])
        m2 = seq_state[:, :a].min(axis=0, out=m2_buf[:a])
        victim = np.bitwise_and(m2, vmask_c, out=vw_buf[:a])
        way = np.minimum(m, victim, out=way_buf[:a])
        np.bitwise_and(way, wmask_c, out=way)
        flat = np.multiply(way, lanes_n, out=flat_buf[:a], casting="unsafe")
        flat += col_ids[:a]
        val = np.bitwise_or(probe, way, out=val_buf[:a])
        tag_flat[flat] = val
        qv = np.add(way, cell(((r + ways_n) << shift) | wspan), out=qv_buf[:a],
                    casting="unsafe")
        seq_flat[flat] = qv
        hits_rm[lo:hi] = hit
        if track:
            missed = np.nonzero(~hit)[0]
            owner_flat[flat[missed]] = cores_rm[lo + missed]  # type: ignore[index]
    hits = hits_rm[pos]
    valid = None
    owners = None
    if need_state:
        valid = np.empty((num_lanes, ways_n), dtype=bool)
        valid[lane_order] = ((tag_state >> cell(shift)) != cell(sentinel)).T
        if track:
            owners = np.empty((num_lanes, ways_n), dtype=np.int64)
            owners[lane_order] = owner_state.T  # type: ignore[union-attr]
    return hits, valid, owners


def _lru_low_ways(
    lanes: np.ndarray, tags: np.ndarray, num_lanes: int, ways: int
) -> np.ndarray:
    """Closed-form hit masks for 1- and 2-way LRU sets (no round loop).

    A 1-way set hits exactly when the lane's previous access carried
    the same tag.  A 2-way LRU set's state after any access is always
    ``(current tag, most recent distinct tag)`` — regardless of the
    hit/miss outcome — so a hit is ``tag == previous tag`` or ``tag ==
    the tag just before the current run of equal tags``.  Both reduce
    to run-start bookkeeping over the lane-grouped stream: one stable
    argsort plus O(n) vector ops, which crushes the round-schedule
    kernel when a few hot lanes would otherwise force thousands of
    tiny rounds (the private L1s are exactly this shape).
    """
    small = num_lanes <= 32767
    perm = np.argsort(lanes.astype(np.int16) if small else lanes, kind="stable")
    lane_sorted = lanes[perm]
    tag_sorted = tags[perm]
    n = lanes.shape[0]
    same_lane = np.zeros(n, dtype=bool)
    np.equal(lane_sorted[1:], lane_sorted[:-1], out=same_lane[1:])
    same_tag = np.zeros(n, dtype=bool)
    np.equal(tag_sorted[1:], tag_sorted[:-1], out=same_tag[1:])
    mru_hit = same_lane & same_tag
    if ways == 1:
        hits_sorted = mru_hit
    else:
        idx = np.arange(n, dtype=np.int32)
        run_start = np.maximum.accumulate(np.where(mru_hit, np.int32(0), idx))
        seg_start = np.maximum.accumulate(np.where(same_lane, np.int32(0), idx))
        prev_run = np.zeros(n, dtype=np.int32)
        prev_run[1:] = run_start[:-1]
        has_second = same_lane & (prev_run > seg_start)
        lru_hit = has_second & (tag_sorted == tag_sorted[prev_run - 1])
        hits_sorted = mru_hit | lru_hit
    hits = np.empty(n, dtype=bool)
    hits[perm] = hits_sorted
    return hits


def _occupancy_from_state(
    valid: np.ndarray, owners: Optional[np.ndarray]
) -> Dict[int, int]:
    """Occupancy dict matching ``SetAssociativeCache.occupancy_by_core``.

    The scalar walk inserts keys in first-seen order over (set
    ascending, way ascending); ``np.unique`` plus an argsort of first
    occurrence indices reproduces that insertion order exactly.
    """
    if owners is None:
        count = int(valid.sum())
        return {0: count} if count else {}
    held = owners[valid]
    if held.size == 0:
        return {}
    uniq, first, counts = np.unique(held, return_index=True, return_counts=True)
    order = np.argsort(first, kind="stable")
    return {int(uniq[i]): int(counts[i]) for i in order}


# ---------------------------------------------------------------------------
# Vector engine
# ---------------------------------------------------------------------------


class VectorEngine(MulticoreEngine):
    """Batch-simulating engine; byte-identical to the scalar engine.

    Construction is identical to
    :class:`~repro.sim.engine.MulticoreEngine` (same validation, same
    core models).  :meth:`run` simulates the private levels as numpy
    batches and resolves the shared LLC with the fastest applicable
    strategy, falling back to the scalar loop for features the batch
    paths do not model.  :attr:`fallback_reason` reports the path
    taken: ``None`` (fully vectorized), ``"hybrid:..."`` (vector
    private levels, scalar LLC object), or ``"scalar:..."`` (full
    scalar fallback).
    """

    #: Why (and how far) the engine fell back on the last run.
    fallback_reason: Optional[str] = None

    def run(self) -> SimResult:
        """Run to completion; see the scalar engine for the contract."""
        with RunWatch(self) as watch:
            reason = None
            if watch.step_checker is not None:
                reason = "scalar:checker"
            elif any(core.prefetcher is not None for core in self.cores):
                reason = "scalar:prefetchers"
            elif any(core.cursor or core.passes or core.clock for core in self.cores):
                reason = "scalar:resumed_cores"
            if reason is not None:
                self.fallback_reason = reason
                self._run_loop(watch.step_checker)
                watch.stage("loop")
                return watch.finish(self._collect(), reason)
            try:
                result = self._run_batched(watch)
            finally:
                clear_buffer_pool()
            watch.stage("collect")
            return watch.finish(result, self.fallback_reason or "vector")

    # -- private-level batch simulation ---------------------------------

    def _run_batched(self, watch: RunWatch) -> SimResult:
        """Vectorize the private levels, then resolve the shared LLC."""
        config = self.config
        block_shift = log2_exact(config.block_bytes)
        blocks = [core.trace.addresses >> np.int64(block_shift) for core in self.cores]
        lengths = [arr.shape[0] for arr in blocks]
        all_blocks = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
        core_of = np.repeat(np.arange(len(blocks), dtype=np.int64), lengths)

        l1_hits = self._private_level(all_blocks, core_of, config.l1)
        miss1 = np.nonzero(~l1_hits)[0]
        l2_hits_sub = self._private_level(
            all_blocks[miss1], core_of[miss1], config.l2
        )
        llc_idx = miss1[~l2_hits_sub]

        # Level codes per access: 0=l1, 1=l2, 3=memory; LLC hits flip
        # their entries to 2 once LLC outcomes are known.
        levels = np.zeros(all_blocks.shape[0], dtype=np.int8)
        levels[miss1] = 1
        levels[llc_idx] = 3
        watch.stage("private")

        llc = self.llc
        bounds = np.concatenate(([0], np.cumsum(lengths)))
        if _lru_batchable(llc, self.memory):
            occupancy, iterations = self._resolve_llc_vector(
                all_blocks, core_of, llc_idx, levels, bounds
            )
            watch.stage("solve", iterations=iterations)
            if occupancy is not None:
                self.fallback_reason = None
                return self._collect_from_levels(levels, bounds, occupancy)
            self.fallback_reason = "hybrid:fixed_point_not_converged"
        else:
            self.fallback_reason = (
                "hybrid:memory_model" if type(llc) is SetAssociativeCache
                and llc._plain_lru else f"hybrid:llc_policy:{llc.name}"
            )
        latencies = self._resolve_llc_hybrid(all_blocks, llc_idx, levels, bounds)
        watch.stage("replay", accesses=int(llc_idx.shape[0]))
        return self._collect_from_levels(
            levels, bounds, llc.occupancy_by_core(), extra=self._llc_extra(),
            llc_latencies=(llc_idx, latencies),
        )

    def _private_level(
        self, blocks: np.ndarray, core_of: np.ndarray, geometry
    ) -> np.ndarray:
        """Hit mask of one private level for a (sub)stream of accesses.

        All cores share one kernel call: lane ``core * num_sets + set``
        keeps per-core caches independent while batching the rounds.
        """
        num_sets = geometry.num_sets
        index_bits = num_sets.bit_length() - 1
        lanes = core_of * np.int64(num_sets)
        lanes += blocks & np.int64(num_sets - 1)
        tags = blocks >> np.int64(index_bits)
        hits, _, _ = lru_batch(
            lanes, tags, len(self.cores) * num_sets, geometry.ways
        )
        return hits

    # -- LLC resolution: full-vector path --------------------------------

    def _resolve_llc_vector(
        self,
        all_blocks: np.ndarray,
        core_of: np.ndarray,
        llc_idx: np.ndarray,
        levels: np.ndarray,
        bounds: np.ndarray,
    ) -> Tuple[Optional[Dict[int, int]], int]:
        """Resolve a plain-LRU LLC entirely in numpy.

        Marks the LLC hits in ``levels``; returns the occupancy and the
        fixed-point iteration count.  Single core: LLC accesses arrive in
        stream order, one kernel call suffices (0 iterations).  Multiple
        cores: iterate the outcome/schedule fixed point; occupancy
        ``None`` means it did not converge within
        :data:`MAX_FIXED_POINT_ITERATIONS` (caller falls back — nothing
        has been touched).
        """
        config = self.config
        geometry = config.llc
        num_sets = geometry.num_sets
        index_bits = num_sets.bit_length() - 1
        sub_blocks = all_blocks[llc_idx]
        lanes = sub_blocks & np.int64(num_sets - 1)
        tags = sub_blocks >> np.int64(index_bits)
        sub_cores = core_of[llc_idx]
        ncores = len(self.cores)

        if ncores == 1:
            hits, valid, owners = lru_batch(
                lanes, tags, num_sets, geometry.ways, need_state=True
            )
            levels[llc_idx[hits]] = 2
            return _occupancy_from_state(valid, None), 0

        lat_llc = np.int64(config.latency.llc_hit)
        lat_mem = np.int64(config.latency.memory)
        seg, base = self._llc_schedule(llc_idx, levels, bounds)
        n_llc = int(lanes.shape[0])
        # Unique, order-faithful sort keys: (sched, core, within-core
        # seq) packed into one int64.  sched strictly increases within a
        # core (every step advances the clock) so the seq term only
        # breaks zero-latency degeneracies, and the engine breaks clock
        # ties across cores by lowest core id, as its (clock, core_id)
        # schedule does.  Unique keys make the (unstable) default
        # argsort order-exact.
        if n_llc == 0:
            return {}, 0
        seg_lengths = np.diff(seg)
        seq = np.arange(n_llc, dtype=np.int64)
        seq -= np.repeat(seg[:-1], seg_lengths)
        seq_bits = max(1, int(seg_lengths.max() - 1).bit_length())
        seg_starts = np.minimum(seg[:-1], n_llc - 1)
        outcomes = np.zeros(n_llc, dtype=bool)  # initial guess: all miss
        order = np.arange(n_llc, dtype=np.int64)
        for iteration in range(1, MAX_FIXED_POINT_ITERATIONS + 1):
            llc_lat = np.where(outcomes, lat_llc, lat_mem)
            # Per-core exclusive cumulative LLC latency: global
            # exclusive cumsum rebased at each core's segment start.
            excl = np.cumsum(llc_lat)
            excl -= llc_lat
            excl -= np.repeat(excl[seg_starts], seg_lengths)
            sched = base + excl
            key = sched * np.int64(ncores)
            key += sub_cores
            key <<= np.int64(seq_bits)
            key |= seq
            order = np.argsort(key)
            hits_sorted, _, _ = lru_batch(
                lanes[order], tags[order], num_sets, geometry.ways
            )
            new_outcomes = np.empty(n_llc, dtype=bool)
            new_outcomes[order] = hits_sorted
            if np.array_equal(new_outcomes, outcomes):
                break
            outcomes = new_outcomes
        else:
            return None, iteration
        hits_sorted, valid, owners = lru_batch(
            lanes[order], tags[order], num_sets, geometry.ways,
            cores=sub_cores[order],
        )
        final = np.empty(n_llc, dtype=bool)
        final[order] = hits_sorted
        levels[llc_idx[final]] = 2
        return _occupancy_from_state(valid, owners), iteration  # type: ignore[arg-type]

    # -- LLC resolution: hybrid path --------------------------------------

    def _resolve_llc_hybrid(
        self,
        all_blocks: np.ndarray,
        llc_idx: np.ndarray,
        levels: np.ndarray,
        bounds: np.ndarray,
    ) -> np.ndarray:
        """Drive the real LLC object in exact global order.

        Marks the LLC hits in ``levels`` and returns each LLC access's
        latency (the memory model may queue), aligned with ``llc_idx``.
        Private levels are already vectorized; the surviving accesses
        are replayed one at a time against ``self.llc`` /
        ``self.memory`` with exact python-int clocks, in the scalar
        engine's ``(clock, core_id)`` order.  The heap holds one int key
        per core with LLC accesses left, ``clock << bits | core_id``
        (``bits`` wide enough for every core id, so int order is the
        scalar loop's tuple order), and each core's next LLC index sits
        in a list beside it; the root core replays while its key stays
        below both children's, so a core pays one heap operation per
        overtake, and a lone core replays to its end with no heap work.
        Each field is one flat list in LLC order (``llc_idx`` is grouped
        by core), a core's clock advances by per-access deltas, and hits
        go to a ``bytearray`` read back with ``np.frombuffer``.

        Over exactly :class:`~repro.sim.memory.FixedLatencyMemory` a
        miss costs ``memory.latency`` and nothing else per access: the
        memory's request count grows by the miss count once, after the
        replay.  Any other memory model is asked per miss
        (``service(clock)``), and the miss latencies go to an
        ``array('q')``.  A plain :class:`~repro.nucache.NUCache` over
        fixed-latency memory replays in one frame
        (:func:`_replay_nucache`); every other LLC is called through
        ``llc.access`` (:func:`_replay_llc`).  Both make the same LLC
        calls in the same order, and epoch rotations, with the
        controller's ``on_rotate`` hook, fire between the same two
        accesses as in a scalar run.
        """
        # The kernel is done: release its scratch before the replay's
        # lists are built.  Those lists set the run's peak memory, so
        # each numpy intermediate goes as soon as its list exists.
        clear_buffer_pool()
        llc = self.llc
        memory = self.memory
        seg, base = self._llc_schedule(llc_idx, levels, bounds)
        n_llc = int(llc_idx.shape[0])
        # base grows within a core, so deltas are small non-negative
        # ints; a core's first delta is its base (its clock starts at 0).
        deltas = np.diff(base, prepend=0)
        starts = seg[:-1][np.diff(seg) > 0]
        deltas[starts] = base[starts]
        delta = deltas.tolist()
        del base, deltas
        traces = [core.trace for core in self.cores]
        block = all_blocks[llc_idx].tolist()
        pc = np.concatenate([t.pcs for t in traces])[llc_idx].tolist()
        write = np.concatenate([t.is_write for t in traces])[llc_idx].tolist()
        hits = bytearray(n_llc)
        bits = (len(self.cores) - 1).bit_length()
        cursor = seg[:-1].tolist()
        ends = seg[1:].tolist()
        heap = [delta[i] << bits | cid for cid, i in enumerate(cursor) if i < ends[cid]]
        heapify(heap)
        schedule = (heap, bits, cursor, ends, delta)
        stream = (block, pc, write, hits)
        lat_llc = self.config.latency.llc_hit
        lat_mem = memory.latency
        fixed = type(memory) is FixedLatencyMemory
        lats = None if fixed else array("q", bytes(8 * n_llc))
        if fixed and type(llc) is NUCache:
            _replay_nucache(llc, schedule, stream, lat_llc, lat_mem)
        else:
            _replay_llc(
                llc.access, None if fixed else memory.service, schedule, stream,
                lats, lat_llc, lat_mem,
            )
        if fixed:
            memory.requests += n_llc - hits.count(1)
        hit_mask = np.frombuffer(hits, dtype=bool)
        levels[llc_idx[hit_mask]] = 2
        miss_latency = lat_mem if lats is None else np.frombuffer(lats, dtype=np.int64)
        return np.where(hit_mask, np.int64(lat_llc), miss_latency)

    # -- shared schedule and result assembly ------------------------------

    def _llc_schedule(
        self, llc_idx: np.ndarray, levels: np.ndarray, bounds: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Core segments and schedule bases of the LLC accesses.

        ``llc_idx`` ascends, so core ``c``'s LLC accesses are
        ``llc_idx[seg[c]:seg[c + 1]]``, with ``seg`` from one
        ``searchsorted``.  A core's clock just before the access at its
        stream index ``pos`` is ``pos * gap`` plus the private latencies
        of its earlier accesses (together ``base``) plus the LLC
        latencies of its earlier LLC accesses.  Only that last term
        depends on LLC outcomes.
        """
        seg = np.searchsorted(llc_idx, bounds)
        counts = np.diff(seg)
        core_start = np.repeat(bounds[:-1], counts)
        pos = llc_idx - core_start
        latency = self.config.latency
        # Private latency per access: L1 and L2 hits cost theirs, and an
        # LLC-bound access (level code 3 until resolved) costs 0 here.
        private = np.array(
            [latency.l1_hit, latency.l2_hit, 0, 0], dtype=np.int64
        )[levels]
        prefix = np.cumsum(private)
        prefix -= private
        base = prefix[llc_idx]
        base -= prefix[core_start]
        gaps = np.array([core.gap for core in self.cores], dtype=np.int64)
        base += pos * np.repeat(gaps, counts)
        return seg, base

    def _collect_from_levels(
        self,
        levels: np.ndarray,
        bounds: np.ndarray,
        occupancy: Dict[int, int],
        extra: Optional[Dict[str, float]] = None,
        llc_latencies: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> SimResult:
        """Assemble a byte-identical ``SimResult`` from level codes.

        Reimplements the scalar per-core bookkeeping in closed form:
        clock after access ``i`` is ``(i+1)*gap + cumsum(latency)[i]``,
        the warmup clock is the clock after the last warmup access, and
        the derived metrics use the exact same integer/float formulas
        as :class:`~repro.sim.core.CoreModel`.  ``llc_latencies``, as
        ``(llc_idx, latencies)``, overrides the level table's latency of
        the LLC accesses (the hybrid replay's memory model may queue).
        """
        latency = self.config.latency
        lat_table = np.array(
            [latency.l1_hit, latency.l2_hit, latency.llc_hit, latency.memory],
            dtype=np.int64,
        )
        lat_all = lat_table[levels]
        if llc_latencies is not None:
            llc_idx, llc_lat = llc_latencies
            lat_all[llc_idx] = llc_lat
        results: List[CoreResult] = []
        for core in self.cores:
            cid = core.core_id
            lo, hi = int(bounds[cid]), int(bounds[cid + 1])
            lv = levels[lo:hi]
            lat = lat_all[lo:hi]
            gap = core.gap
            lat += np.int64(gap)
            clocks = np.cumsum(lat)
            n = hi - lo
            warm = core.warmup_accesses
            completion = int(clocks[n - 1])
            warmup_clock = int(clocks[warm - 1]) if warm > 0 else 0
            measured = np.bincount(lv[warm:], minlength=4)
            counts = {
                LEVEL_L1: int(measured[0]),
                LEVEL_L2: int(measured[1]),
                LEVEL_LLC: int(measured[2]),
                LEVEL_MEMORY: int(measured[3]),
            }
            cycles = max(0, completion - warmup_clock)
            executed = (n - warm) * (gap + 1)
            llc_misses = counts[LEVEL_MEMORY]
            results.append(CoreResult(
                core_id=cid,
                workload=core.trace.name,
                instructions=executed,
                cycles=cycles,
                ipc=executed / cycles if cycles else 0.0,
                mpki=1000.0 * llc_misses / max(1, executed),
                llc_accesses=counts[LEVEL_LLC] + llc_misses,
                llc_misses=llc_misses,
                level_counts=counts,
            ))
            # Mirror the scalar core's terminal state so post-run
            # introspection (tests, debugging) sees a finished core.
            core.completion_clock = completion
            core.warmup_clock = warmup_clock
            core.clock = completion
            core.passes = 1
            core.level_counts = dict(counts)
        return SimResult(
            policy=self.llc.name,
            cores=results,
            llc_occupancy_by_core=dict(occupancy),
            llc_extra=dict(extra or {}),
        )


# ---------------------------------------------------------------------------
# Hybrid replay loops
# ---------------------------------------------------------------------------


def _replay_llc(access, service, schedule, stream, lats, lat_llc, lat_mem) -> None:
    """The hybrid replay with one ``access(block, core, pc, is_write)`` call
    per LLC access, in the schedule's ``(clock, core_id)`` order.

    ``schedule`` is ``(heap, bits, cursor, ends, delta)`` and ``stream``
    is ``(block, pc, write, hits)``, as
    :meth:`VectorEngine._resolve_llc_hybrid` builds them.  A hit sets
    its byte in ``hits`` and costs ``lat_llc``.  With ``service`` set to
    ``None`` (fixed-latency memory) a miss costs ``lat_mem``; otherwise
    it costs ``service(clock)``, stored in ``lats``.
    """
    heap, bits, cursor, ends, delta = schedule
    block, pc, write, hits = stream
    mask = (1 << bits) - 1
    while heap:
        key = heap[0]
        cid = key & mask
        clock = key >> bits
        # The root stays first while its key is below both children's:
        # while clock << bits | cid < rival, that is clock <= limit.
        size = len(heap)
        if size > 2:
            rival = heap[1] if heap[1] < heap[2] else heap[2]
            limit = (rival - cid - 1) >> bits
        elif size == 2:
            limit = (heap[1] - cid - 1) >> bits
        else:
            limit = math.inf
        i = cursor[cid]
        end = ends[cid]
        while True:
            if access(block[i], cid, pc[i], write[i]):
                hits[i] = 1
                latency = lat_llc
            elif service is None:
                latency = lat_mem
            else:
                latency = service(clock)
                lats[i] = latency
            i += 1
            if i == end:
                break
            clock += latency + delta[i]
            if clock > limit:
                break
        if i < end:
            cursor[cid] = i
            heapreplace(heap, clock << bits | cid)
        else:
            heappop(heap)


def _replay_nucache(llc: NUCache, schedule, stream, lat_llc: int, lat_mem: int) -> None:
    """The hybrid replay of a plain NUcache over fixed-latency memory, in
    one frame.

    The schedule loop of :func:`_replay_llc` with the body of
    :meth:`NUCache.access <repro.nucache.organization.NUCache.access>`
    copied in, so an access costs no call.  The LLC's, the controller's,
    the profiler's and the stats' hot fields are locals, and so are the
    counters an access bumps: the stats totals and per-core hits and
    misses, ``deli_hits``, ``retentions``, ``promotions``,
    ``deli_evictions`` and the epoch's access and miss counts.  They are
    written back before every ``controller.rotate`` and at the end, so
    ``_remap_slots``, the ``on_rotate`` hook and an epoch check see what
    they see in a scalar run, and the epoch's tables are re-read after
    each rotation.  A core's per-core stats entry is created at its
    first turn at the heap's root, which is its first access, as
    ``access`` creates it.  A change to NUcache's access semantics must
    be made here as well as in ``NUCache.access`` and the reference
    methods (``docs/nucache.md``).
    """
    heap, bits, cursor, ends, delta = schedule
    block, pc, write, hits = stream
    mask = (1 << bits) - 1
    sets = llc.sets
    set_mask = llc._set_mask
    index_bits = llc._index_bits
    deli_ways = llc.deli_ways
    deli_refresh = llc._deli_refresh
    remap = llc._remap_slots
    controller = llc.controller
    profiler = controller.profiler
    sample_period = profiler.sample_period
    history_capacity = profiler.history_capacity
    stats = llc.stats
    per_core = stats.per_core
    entries = [per_core.get(cid) for cid in range(len(cursor))]
    core_hits = [0 if entry is None else entry.hits for entry in entries]
    core_misses = [0 if entry is None else entry.misses for entry in entries]
    total = stats.total
    total_hits, total_misses = total.hits, total.misses
    evicted, written_back = total.evictions, total.writebacks
    deli_hits, retentions = llc.deli_hits, llc.retentions
    promotions, deli_evictions = llc.promotions, llc.deli_evictions
    (miss_counts, slot_of, selected, epoch_target, access_target, epoch_accesses,
     epoch_misses, history, log, reuses, evictions) = _epoch_state(controller)
    while heap:
        key = heap[0]
        cid = key & mask
        clock = key >> bits
        if entries[cid] is None:
            entries[cid] = per_core.setdefault(cid, AccessStats())
        size = len(heap)
        if size > 2:
            rival = heap[1] if heap[1] < heap[2] else heap[2]
            limit = (rival - cid - 1) >> bits
        elif size == 2:
            limit = (heap[1] - cid - 1) >> bits
        else:
            limit = math.inf
        i = cursor[cid]
        end = ends[cid]
        while True:
            block_addr = block[i]
            set_index = block_addr & set_mask
            tag = block_addr >> index_bits
            nu_set = sets[set_index]
            tag_to_way = nu_set.tag_to_way
            way = tag_to_way.get(tag, -1)
            if way >= 0:
                # MainWay hit: LRUPolicy.touch inlined (move to MRU).
                stack = nu_set.stack
                if stack[0] != way:
                    stack.remove(way)
                    stack.insert(0, way)
                if write[i]:
                    nu_set.dirty[way] = True
                total_hits += 1
                core_hits[cid] += 1
                hits[i] = 1
                latency = lat_llc
            else:
                # NextUseProfiler.on_reuse
                if not set_index % sample_period:
                    position = history.pop(block_addr, None)
                    if position is not None:
                        reuses.append(position)
                        reuses.append(len(log))
                deli = nu_set.deli
                entry = deli.pop(tag, None)
                if entry is not None:
                    deli_hits += 1
                    total_hits += 1
                    core_hits[cid] += 1
                    hits[i] = 1
                    latency = lat_llc
                    if write[i]:
                        entry.dirty = True
                    if deli_refresh:
                        # Ablation: keep the line in the DeliWays at MRU
                        # instead of promoting it back to the MainWays.
                        deli[tag] = entry
                    else:
                        promotions += 1
                        fill_core = entry.core
                        fill_pc = entry.pc
                        fill_slot = entry.pc_slot
                        fill_dirty = entry.dirty
                else:
                    total_misses += 1
                    core_misses[cid] += 1
                    latency = lat_mem
                    # NUcacheController.note_miss
                    fill_pc = pc[i]
                    miss_key = (cid, fill_pc)
                    miss_counts[miss_key] = miss_counts.get(miss_key, 0) + 1
                    epoch_misses += 1
                    fill_core = cid
                    fill_slot = slot_of.get(miss_key, -1)
                    fill_dirty = write[i]
                if entry is None or not deli_refresh:
                    # Fill at MainWay MRU.
                    stack = nu_set.stack
                    free = nu_set.free
                    if free:
                        way = free.pop()
                        stack.remove(way)
                    else:
                        way = stack.pop()  # LRUPolicy.victim: the stack bottom
                        victim_tag = nu_set.tags[way]
                        del tag_to_way[victim_tag]
                        victim_slot = nu_set.slots[way]
                        # NextUseProfiler.on_eviction, less its move_to_end.
                        if victim_slot >= 0 and not set_index % sample_period:
                            evictions[victim_slot] += 1
                            history[(victim_tag << index_bits) | set_index] = len(log)
                            log.append(victim_slot)
                            if len(history) > history_capacity:
                                history.popitem(last=False)
                        # NUcacheController.is_selected: retain, or leave.
                        if deli_ways > 0 and victim_slot in selected:
                            deli[victim_tag] = _DeliEntry(
                                nu_set.cores[way], nu_set.pcs[way], victim_slot,
                                nu_set.dirty[way], seq=retentions,
                            )
                            retentions += 1
                            if len(deli) > deli_ways:
                                _old_tag, old_entry = deli.popitem(last=False)
                                deli_evictions += 1
                                evicted += 1
                                if old_entry.dirty:
                                    written_back += 1
                        else:
                            evicted += 1
                            if nu_set.dirty[way]:
                                written_back += 1
                    stack.insert(0, way)
                    nu_set.tags[way] = tag
                    nu_set.dirty[way] = fill_dirty
                    nu_set.cores[way] = fill_core
                    nu_set.pcs[way] = fill_pc
                    nu_set.slots[way] = fill_slot
                    tag_to_way[tag] = way
            # NUcacheController.note_access
            epoch_accesses += 1
            if epoch_misses >= epoch_target or epoch_accesses >= access_target:
                _store_nucache_counters(llc, entries, core_hits, core_misses, (
                    total_hits, total_misses, evicted, written_back, deli_hits,
                    retentions, promotions, deli_evictions, epoch_accesses,
                    epoch_misses,
                ))
                controller.rotate(remap)
                (miss_counts, slot_of, selected, epoch_target, access_target,
                 epoch_accesses, epoch_misses, history, log, reuses,
                 evictions) = _epoch_state(controller)
            i += 1
            if i == end:
                break
            clock += latency + delta[i]
            if clock > limit:
                break
        if i < end:
            cursor[cid] = i
            heapreplace(heap, clock << bits | cid)
        else:
            heappop(heap)
    _store_nucache_counters(llc, entries, core_hits, core_misses, (
        total_hits, total_misses, evicted, written_back, deli_hits, retentions,
        promotions, deli_evictions, epoch_accesses, epoch_misses,
    ))


def _epoch_state(controller) -> tuple:
    """The per-epoch tables and counts the NUcache frame holds in locals.

    ``rotate`` replaces all of them, so the frame reads them again
    after each rotation.
    """
    profiler = controller.profiler
    return (
        controller._miss_counts, controller._slot_of, controller._selected,
        controller._epoch_target, controller._access_target,
        controller._accesses_this_epoch, controller._misses_this_epoch,
        profiler._history, profiler._log, profiler._reuses, profiler._evictions,
    )


def _store_nucache_counters(
    llc: NUCache,
    entries: List[Optional[AccessStats]],
    core_hits: List[int],
    core_misses: List[int],
    counts: tuple,
) -> None:
    """Write the NUcache frame's local counters back to their objects."""
    total = llc.stats.total
    controller = llc.controller
    (total.hits, total.misses, total.evictions, total.writebacks, llc.deli_hits,
     llc.retentions, llc.promotions, llc.deli_evictions,
     controller._accesses_this_epoch, controller._misses_this_epoch) = counts
    for cid, entry in enumerate(entries):
        if entry is not None:
            entry.hits = core_hits[cid]
            entry.misses = core_misses[cid]
