"""The baseline probe behind the characterization figures (Fig 1, Fig 2).

Both figures describe the LRU baseline's eviction stream, so one run per
benchmark serves both: NUcache with zero DeliWays, which behaves as a
plain 16-way LRU cache (the claims suite pins Fig 4's D=0 ≡ LRU), with a
thin recording wrapper around the shared LLC — the software equivalent
of attaching a logic analyzer, with no behavioural effect on the run.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Tuple

import numpy as np

from repro.common.config import paper_system_config
from repro.common.rng import DEFAULT_SEED
from repro.sim.memory import FixedLatencyMemory
from repro.sim.policies import make_llc
from repro.sim.runner import make_traces
from repro.sim.vector import make_engine, resolve_engine_mode

#: In-process memo of probe results, keyed ``(benchmark, accesses, seed)``.
_PROBE_MEMO: Dict[Tuple[str, int, int], Tuple[Counter, np.ndarray]] = {}


def baseline_probe(
    benchmark_name: str, accesses: int, seed: int = DEFAULT_SEED
) -> Tuple[Counter, np.ndarray]:
    """Per-PC LLC misses and solo Next-Use distances under baseline LRU.

    Returns the misses per PC, in order of each PC's first miss, and
    one solo Next-Use distance per profiled reuse (evictions from the
    line's own filling PC between its eviction and its next use).  The
    run takes the ``REPRO_ENGINE`` engine, else the hybrid replay, which
    on one core makes every LLC call a scalar run makes, in order.
    Memoized in-process: callers share the returned objects.
    """
    memo_key = (benchmark_name, accesses, seed)
    if memo_key in _PROBE_MEMO:
        return _PROBE_MEMO[memo_key]
    config = paper_system_config(1, deli_ways=0)
    traces = make_traces([benchmark_name], accesses, seed)
    llc = make_llc("nucache", config, seed)
    llc.controller.keep_profiles = True
    misses: Counter = Counter()
    original_access = llc.access

    def recording_access(block: int, core: int, pc: int, is_write: bool) -> bool:
        hit = original_access(block, core, pc, is_write)
        if not hit:
            misses[pc] += 1
        return hit

    llc.access = recording_access  # type: ignore[method-assign]
    make_engine(
        traces, llc, config, FixedLatencyMemory(config.latency.memory),
        mode=resolve_engine_mode() or "vector",
    ).run()
    # The wrapper holds the LLC through its bound method; dropping it
    # frees the LLC now rather than at the next full collection.
    del llc.access
    solo = [
        profile.event_deltas[np.arange(profile.num_events), profile.event_pc]
        for profile in llc.controller.profile_history
        if profile.num_events
    ]
    distances = np.concatenate(solo) if solo else np.zeros(0, dtype=np.int64)
    _PROBE_MEMO[memo_key] = (misses, distances)
    return _PROBE_MEMO[memo_key]
