"""The baseline probe equals the two runs it replaced, on every engine.

Fig 1 once counted misses per PC on a scalar LRU run and Fig 2 read
Next-Use profiles from a second, NUcache(D=0), scalar run.
:func:`~repro.experiments.probe.baseline_probe` makes one NUcache(D=0)
run on the hybrid replay by default; these tests rebuild both old runs
on :class:`~repro.sim.engine.MulticoreEngine` and compare item for item.
Per-access invariant checks cost ~2 ms per access on the paper's LLC,
so the checked run is short: it covers the miss counts, while reuse
events need about 15,000 accesses.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

import numpy as np
import pytest

from repro.check.invariants import CHECK_ENV_VAR
from repro.common.config import paper_system_config
from repro.common.rng import DEFAULT_SEED
from repro.experiments import probe
from repro.experiments.probe import baseline_probe
from repro.sim.engine import MulticoreEngine
from repro.sim.memory import FixedLatencyMemory
from repro.sim.policies import make_llc
from repro.sim.runner import make_traces
from repro.sim.vector import ENGINE_ENV, make_engine
from repro.workloads.spec_like import benchmark_names

ACCESSES = 20_000
CHECKED_ACCESSES = 1_500


def _scalar_run(name, accesses, policy, config):
    llc = make_llc(policy, config, DEFAULT_SEED)
    traces = make_traces([name], accesses, DEFAULT_SEED)
    engine = MulticoreEngine(
        traces, llc, config, FixedLatencyMemory(config.latency.memory)
    )
    return llc, engine


@lru_cache(maxsize=None)
def _reference(name, accesses):
    """Misses per PC under LRU, solo distances under NUcache(D=0)."""
    llc, engine = _scalar_run(name, accesses, "lru", paper_system_config(1))
    misses: Counter = Counter()
    original_access = llc.access

    def recording_access(block, core, pc, is_write):
        hit = original_access(block, core, pc, is_write)
        if not hit:
            misses[pc] += 1
        return hit

    llc.access = recording_access
    engine.run()
    llc, engine = _scalar_run(
        name, accesses, "nucache", paper_system_config(1, deli_ways=0)
    )
    llc.controller.keep_profiles = True
    engine.run()
    solo = [
        profile.event_deltas[np.arange(profile.num_events), profile.event_pc]
        for profile in llc.controller.profile_history
        if profile.num_events
    ]
    return misses, np.concatenate(solo) if solo else np.zeros(0, dtype=np.int64)


@pytest.mark.parametrize(
    "env, names, accesses",
    [
        ({}, benchmark_names(), ACCESSES),
        ({ENGINE_ENV: "scalar"}, benchmark_names(), ACCESSES),
        ({CHECK_ENV_VAR: "access"}, ("art_like", "mcf_like"), CHECKED_ACCESSES),
    ],
    ids=["default", "scalar", "checked"],
)
def test_probe_matches_the_runs_it_replaces(env, names, accesses, monkeypatch):
    monkeypatch.delenv(ENGINE_ENV, raising=False)
    monkeypatch.delenv(CHECK_ENV_VAR, raising=False)
    references = {name: _reference(name, accesses) for name in names}
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    monkeypatch.setattr(probe, "_PROBE_MEMO", {})
    for name, (ref_misses, ref_distances) in references.items():
        misses, distances = baseline_probe(name, accesses)
        assert list(misses.items()) == list(ref_misses.items()), name
        assert distances.tolist() == ref_distances.tolist(), name
    # Not vacuous: every benchmark misses, and most long runs reuse.
    assert all(misses for misses, _ in references.values())
    if accesses == ACCESSES:
        assert sum(1 for _, dist in references.values() if dist.size) >= 6


def test_probe_runs_once_on_the_hybrid_path_and_unwraps_the_llc(monkeypatch):
    monkeypatch.delenv(ENGINE_ENV, raising=False)
    monkeypatch.delenv(CHECK_ENV_VAR, raising=False)
    monkeypatch.setattr(probe, "_PROBE_MEMO", {})
    engines = []

    def spy(*args, **kwargs):
        engines.append(make_engine(*args, **kwargs))
        return engines[-1]

    monkeypatch.setattr(probe, "make_engine", spy)
    first = baseline_probe("art_like", CHECKED_ACCESSES)
    again = baseline_probe("art_like", CHECKED_ACCESSES)
    (engine,) = engines
    assert again is first
    assert engine.fallback_reason == "hybrid:llc_policy:nucache"
    assert "access" not in vars(engine.llc)
