"""High-level run helpers: single benchmarks, mixes, alone baselines.

These are the functions the job executor (:func:`repro.exec.execute_job`),
the examples and the CLI call.  They encapsulate the conventions of the
study:

* a *mix run* gives each core one benchmark, relocated into a private
  address space, on an LLC sized for the core count;
* an *alone run* gives one benchmark the whole (same-sized) LLC under
  LRU — the denominator of weighted speedup;
* a *probe run* (:func:`run_probe`) records the LRU baseline's per-PC
  misses and Next-Use distances for the characterization figures;
* trace lengths are expressed in accesses per core.

:func:`alone_ipc` memoizes alone IPCs in-process and resolves misses
through the scheduler, so across processes and invocations they come
from the content-addressed result store (:mod:`repro.exec`).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.common.config import SystemConfig, paper_system_config
from repro.common.rng import DEFAULT_SEED
from repro.prefetch.prefetchers import make_prefetcher
from repro.sim.engine import ProbeResult, SimResult
from repro.sim.memory import BandwidthLimitedMemory, FixedLatencyMemory
from repro.sim.policies import make_llc
from repro.sim.vector import make_engine, resolve_engine_mode
from repro.workloads.mixes import mix_members
from repro.workloads.spec_like import benchmark
from repro.workloads.synthetic import generate_trace
from repro.workloads.trace import Trace

#: Default accesses per core for experiment runs; figures scale this.
DEFAULT_ACCESSES = 200_000

#: Fraction of each trace used to warm caches before measuring (the
#: warm-then-measure methodology of the paper's simulator runs).
DEFAULT_WARMUP_FRACTION = 0.25

#: Channel gap (cycles between request starts) of the bandwidth-limited
#: memory model.  Eight latency-bound cores generate one request per
#: ~250+ cycles each, i.e. one every ~32 cycles combined; a 48-cycle
#: channel therefore saturates under miss-heavy 8-core mixes, which is
#: the regime the bandwidth-sensitivity study targets.
DEFAULT_CHANNEL_GAP = 48


def _make_memory(config: SystemConfig, model: str):
    """Build the main-memory model named by ``model``."""
    if model == "fixed":
        return FixedLatencyMemory(config.latency.memory)
    if model == "bandwidth":
        return BandwidthLimitedMemory(config.latency.memory, DEFAULT_CHANNEL_GAP)
    raise ValueError(f"unknown memory model {model!r}; use 'fixed' or 'bandwidth'")


def make_traces(
    members: Sequence[str], accesses: int, seed: int
) -> Tuple[Trace, ...]:
    """Generate one relocated trace per core for a mix's members.

    Each instance gets a distinct relocation tag so two cores running
    the same benchmark never share cache lines.
    """
    traces = []
    for core_id, name in enumerate(members):
        trace = generate_trace(benchmark(name), accesses, seed)
        traces.append(trace.relocated(core_id))
    return tuple(traces)


def run_workload(
    members: Sequence[str],
    policy: str,
    config: Optional[SystemConfig] = None,
    accesses: int = DEFAULT_ACCESSES,
    seed: int = DEFAULT_SEED,
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
    prefetcher: str = "none",
    memory_model: str = "fixed",
    **nucache_overrides: object,
) -> SimResult:
    """Run a set of benchmarks (one per core) under one LLC policy."""
    if config is None:
        config = paper_system_config(len(members), **nucache_overrides)
    traces = make_traces(members, accesses, seed)
    llc = make_llc(policy, config, seed)
    prefetchers = None
    if prefetcher != "none":
        prefetchers = [make_prefetcher(prefetcher) for _ in members]
    engine = make_engine(
        traces, llc, config, _make_memory(config, memory_model),
        warmup_fraction=warmup_fraction, prefetchers=prefetchers,
    )
    return engine.run()


def run_mix(
    mix_name: str,
    policy: str,
    accesses: int = DEFAULT_ACCESSES,
    seed: int = DEFAULT_SEED,
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
    prefetcher: str = "none",
    memory_model: str = "fixed",
    **nucache_overrides: object,
) -> SimResult:
    """Run one named mix under one LLC policy."""
    return run_workload(
        mix_members(mix_name), policy, None, accesses, seed, warmup_fraction,
        prefetcher, memory_model, **nucache_overrides,
    )


def run_single(
    benchmark_name: str,
    policy: str,
    accesses: int = DEFAULT_ACCESSES,
    seed: int = DEFAULT_SEED,
    num_cores_capacity: float = 1,
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
    prefetcher: str = "none",
    **nucache_overrides: object,
) -> SimResult:
    """Run one benchmark alone on an LLC sized for ``num_cores_capacity``.

    With ``num_cores_capacity > 1`` the benchmark monopolizes a larger
    LLC — this is the "alone" configuration of the multicore studies.
    """
    config = paper_system_config(1, **nucache_overrides)
    if num_cores_capacity != 1:
        from dataclasses import replace

        from repro.common.config import paper_llc_geometry

        config = replace(config, llc=paper_llc_geometry(num_cores_capacity))
    trace = generate_trace(benchmark(benchmark_name), accesses, seed)
    llc = make_llc(policy, config, seed)
    prefetchers = None if prefetcher == "none" else [make_prefetcher(prefetcher)]
    engine = make_engine(
        (trace,), llc, config, FixedLatencyMemory(config.latency.memory),
        warmup_fraction=warmup_fraction, prefetchers=prefetchers,
    )
    return engine.run()


def run_probe(
    benchmark_name: str, accesses: int, seed: int = DEFAULT_SEED
) -> ProbeResult:
    """The baseline probe behind Fig 1 and Fig 2: one run, two views.

    Both figures describe the LRU baseline's eviction stream, so one run
    serves both: NUcache with zero DeliWays, which behaves as a plain
    16-way LRU cache (the claims suite pins Fig 4's D=0 ≡ LRU), with its
    controller keeping every epoch's profile and miss counts.  With no
    DeliWays every LLC miss is a ``note_miss``, so the epochs' ``(core,
    PC)`` miss counts, summed in epoch order, are the misses per PC in
    first-miss order.  The solo Next-Use distances (evictions from the
    line's own filling PC between its eviction and its next use) come
    from the kept epoch profiles.

    The run takes the ``REPRO_ENGINE`` engine, else the hybrid replay,
    which on one core makes every LLC access a scalar run makes, in
    order, in NUcache's one-frame replay.
    """
    config = paper_system_config(1, deli_ways=0)
    traces = make_traces([benchmark_name], accesses, seed)
    llc = make_llc("nucache", config, seed)
    controller = llc.controller
    controller.keep_profiles = True
    make_engine(
        traces, llc, config, FixedLatencyMemory(config.latency.memory),
        mode=resolve_engine_mode() or "vector",
    ).run()
    misses: Dict[int, int] = {}
    for counts in (*controller.miss_count_history, controller._miss_counts):
        for (_core, pc), count in counts.items():
            misses[pc] = misses.get(pc, 0) + count
    solo = [
        profile.event_deltas[np.arange(profile.num_events), profile.event_pc]
        for profile in controller.profile_history
        if profile.num_events
    ]
    distances = np.concatenate(solo).tolist() if solo else []
    return ProbeResult(misses, distances)


#: In-process memo of alone IPCs, backed by the persistent result store.
_ALONE_MEMO: Dict[Tuple[str, int, int, int, str], float] = {}


def clear_alone_memo() -> None:
    """Drop the in-process alone-IPC memo (tests use this)."""
    _ALONE_MEMO.clear()


def alone_ipc(
    benchmark_name: str,
    num_cores_capacity: int,
    accesses: int = DEFAULT_ACCESSES,
    seed: int = DEFAULT_SEED,
    policy: str = "lru",
) -> float:
    """Memoized alone-run IPC (weighted-speedup denominator).

    Misses resolve as a one-job scheduler batch, so alone baselines are
    shared across worker processes and invocations through the result
    store, with the scheduler's result validation and degraded-store
    fallback.
    """
    memo_key = (benchmark_name, num_cores_capacity, accesses, seed, policy)
    if memo_key not in _ALONE_MEMO:
        # Imported lazily: repro.exec imports this module at load time.
        from repro.exec import SimJob, run_jobs

        job = SimJob.alone(benchmark_name, num_cores_capacity, accesses, seed, policy)
        _ALONE_MEMO[memo_key] = run_jobs([job], label="alone")[0].cores[0].ipc
    return _ALONE_MEMO[memo_key]
