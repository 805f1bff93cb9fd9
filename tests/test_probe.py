"""The baseline probe job equals the two runs it replaced, on every engine.

Fig 1 once counted misses per PC on a scalar LRU run and Fig 2 read
Next-Use profiles from a second, NUcache(D=0), scalar run.
:func:`~repro.experiments.probe.baseline_probes` resolves one
``SimJob.probe`` job per benchmark through the scheduler, and the job
makes one NUcache(D=0) run on the hybrid replay by default; these tests
rebuild both old runs on :class:`~repro.sim.engine.MulticoreEngine` and
compare item for item.  Per-access invariant checks cost ~2 ms per
access on the paper's LLC, so the checked run is short: it covers the
miss counts, while reuse events need about 15,000 accesses.

The store key does not name the engine, so every test starts from an
empty store: a leg served from another leg's entries would prove
nothing.
"""

from __future__ import annotations

import json
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest

from repro.check.invariants import CHECK_ENV_VAR
from repro.common.config import paper_system_config
from repro.common.rng import DEFAULT_SEED
from repro.exec import (
    STORE_ENV_VAR,
    FaultPlan,
    FaultyStore,
    FileResultStore,
    Scheduler,
    SimJob,
    run_jobs,
    validate_result,
)
from repro.exec import context as exec_context
from repro.experiments import probe
from repro.experiments.probe import baseline_probes
from repro.metrics.basic import observe_results
from repro.nucache import NUCache
from repro.obs.metrics import MetricsRegistry
from repro.sim import runner
from repro.sim.engine import MulticoreEngine, ProbeResult
from repro.sim.memory import FixedLatencyMemory
from repro.sim.policies import make_llc
from repro.sim.runner import make_traces
from repro.sim.vector import ENGINE_ENV, VectorEngine, make_engine
from repro.workloads.spec_like import benchmark_names

ACCESSES = 20_000
CHECKED_ACCESSES = 1_500


@pytest.fixture
def fresh(monkeypatch, tmp_path):
    """An empty store and probe memo, serial jobs, the default engine."""
    monkeypatch.delenv(ENGINE_ENV, raising=False)
    monkeypatch.delenv(CHECK_ENV_VAR, raising=False)
    monkeypatch.setenv(STORE_ENV_VAR, str(tmp_path / "store"))
    monkeypatch.setattr(probe, "_PROBE_MEMO", {})
    exec_context.reset()
    yield FileResultStore(tmp_path / "store")
    exec_context.reset()


@pytest.fixture
def engines(monkeypatch):
    """Every engine a probe run builds, in order."""
    built = []

    def spy(*args, **kwargs):
        built.append(make_engine(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(runner, "make_engine", spy)
    return built


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


def _path(engine):
    return engine.fallback_reason if type(engine) is VectorEngine else "scalar loop"


@pytest.mark.parametrize(
    "env, names, accesses, path",
    [
        ({}, benchmark_names(), ACCESSES, "hybrid:llc_policy:nucache"),
        ({ENGINE_ENV: "scalar"}, benchmark_names(), ACCESSES, "scalar loop"),
        ({CHECK_ENV_VAR: "access"}, ("art_like", "mcf_like"), CHECKED_ACCESSES,
         "scalar:checker"),
    ],
    ids=["default", "scalar", "checked"],
)
def test_probe_matches_the_runs_it_replaces(
    env, names, accesses, path, fresh, engines, monkeypatch
):
    references = {name: _reference(name, accesses) for name in names}
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    results = baseline_probes(names, accesses)
    # Every leg computed its own runs, on its own engine path.
    assert exec_context.totals().completed == len(names)
    assert [_path(engine) for engine in engines] == [path] * len(names)
    for (name, (ref_misses, ref_distances)), result in zip(references.items(), results):
        assert list(result.misses.items()) == list(ref_misses.items()), name
        assert result.distances == ref_distances.tolist(), name
    # Not vacuous: every benchmark misses, and most long runs reuse.
    assert all(misses for misses, _ in references.values())
    if accesses == ACCESSES:
        assert sum(1 for _, dist in references.values() if dist.size) >= 6


def test_probe_runs_once_on_the_hybrid_path_and_unwraps_the_llc(
    fresh, engines, monkeypatch
):
    # The probe counts misses from the controller's epochs, so NUcache's
    # fused replay frame serves it: nothing wraps or replaces llc.access.
    set_names = []
    setattr_ = NUCache.__setattr__

    def recording_setattr(llc, name, value):
        set_names.append(name)
        setattr_(llc, name, value)

    monkeypatch.setattr(NUCache, "__setattr__", recording_setattr)
    names = ("art_like", "mcf_like")
    first = baseline_probes(names, CHECKED_ACCESSES)
    again = baseline_probes(names, CHECKED_ACCESSES)
    assert [engine.fallback_reason for engine in engines] == (
        ["hybrid:llc_policy:nucache"] * len(names)
    )
    assert "controller" in set_names and "access" not in set_names
    assert all("access" not in vars(engine.llc) for engine in engines)
    assert all(memo is result for memo, result in zip(again, first))
    totals = exec_context.totals()
    assert (totals.total, totals.completed) == (len(names), len(names))


def test_a_stored_probe_round_trips_equal(fresh):
    job = SimJob.probe("soplex_like", ACCESSES)
    (computed,) = run_jobs([job])
    stored = fresh.get(job)
    assert type(stored) is ProbeResult and stored.distances
    assert list(stored.misses.items()) == list(computed.misses.items())
    assert stored.distances == computed.distances
    assert ProbeResult.from_dict(json.loads(json.dumps(computed.to_dict()))) == computed


@pytest.mark.parametrize("kind", ["corrupt", "store.get.corrupt"])
def test_a_corrupted_probe_entry_is_quarantined_and_recomputed(kind, fresh, tmp_path):
    job = SimJob.probe("art_like", CHECKED_ACCESSES)
    # `corrupt` damages the first put, `store.get.corrupt` the first read
    # of an existing entry; each fault fires once.
    faulty = FaultyStore(fresh, FaultPlan.parse(kind, scratch=str(tmp_path / "markers")))
    (clean,) = Scheduler(store=faulty).run([job])
    scheduler = Scheduler(store=faulty)
    (again,) = scheduler.run([job])
    assert (scheduler.last_report.completed, scheduler.last_report.cached) == (1, 0)
    assert again == clean
    assert fresh.stats().quarantined == 1
    assert fresh.get(job) == clean


@pytest.mark.parametrize(
    "payload, problem",
    [
        ({"misses": [[7, 3]], "distances": [0, 5]}, None),
        ({"misses": [[7.0, 3]], "distances": []}, "int PC"),
        ({"misses": [[7, 0]], "distances": []}, "positive count"),
        ({"misses": [[7, True]], "distances": []}, "positive count"),
        ({"misses": [[7, 3]], "distances": [4, -1]}, "non-negative ints"),
        ({"misses": [[7, 3]], "distances": [2.5]}, "non-negative ints"),
    ],
)
def test_probe_payload_validation(payload, problem):
    job = SimJob.probe("art_like", CHECKED_ACCESSES)
    violations = validate_result(ProbeResult.from_dict(payload), job)
    if problem is None:
        assert violations == []
    else:
        assert len(violations) == 1 and problem in violations[0]


def test_a_result_of_the_wrong_kind_is_refused():
    probe_result = ProbeResult({7: 3}, [])
    (sim_result,) = run_jobs([SimJob.single("art_like", "lru", CHECKED_ACCESSES)])
    assert validate_result(sim_result, SimJob.probe("art_like", CHECKED_ACCESSES)) == [
        "probe job got a SimResult"
    ]
    assert validate_result(
        probe_result, SimJob.single("art_like", "lru", CHECKED_ACCESSES)
    ) == ["single job got a ProbeResult"]


def test_metrics_skip_probe_results():
    registry = MetricsRegistry()
    observe_results(registry, [ProbeResult({7: 3}, [1]), None])
    assert registry.to_dict()["counters"] == {}
