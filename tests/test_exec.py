"""Tests for the repro.exec subsystem: jobs, store, scheduler, context."""

from __future__ import annotations

import importlib
import json
from dataclasses import replace

import pytest

from repro.common.errors import ExecError
from repro.exec import (
    ENGINE_VERSION,
    FileResultStore,
    Scheduler,
    SimJob,
    execute_job,
)
from repro.exec import context as exec_context
from repro.sim.engine import CoreResult, SimResult
from repro.sim.runner import alone_ipc, clear_alone_memo, run_single
from repro.workloads.mixes import mix_members

ACCESSES = 4_000


@pytest.fixture(autouse=True)
def _fresh_exec_context():
    """Each test starts from environment-default execution config."""
    exec_context.reset()
    yield
    exec_context.reset()


@pytest.fixture
def store(tmp_path):
    return FileResultStore(tmp_path / "store")


# ----------------------------------------------------------------------
# SimJob
# ----------------------------------------------------------------------


class TestSimJob:
    def test_key_is_stable(self):
        a = SimJob.single("hmmer_like", "lru", ACCESSES)
        b = SimJob.single("hmmer_like", "lru", ACCESSES)
        assert a == b
        assert a.key() == b.key()

    def test_every_field_changes_the_key(self):
        base = SimJob.single("hmmer_like", "nucache", ACCESSES, seed=1)
        variants = [
            SimJob.single("art_like", "nucache", ACCESSES, seed=1),
            SimJob.single("hmmer_like", "lru", ACCESSES, seed=1),
            SimJob.single("hmmer_like", "nucache", ACCESSES + 1, seed=1),
            SimJob.single("hmmer_like", "nucache", ACCESSES, seed=2),
            SimJob.single("hmmer_like", "nucache", ACCESSES, seed=1,
                          capacity_cores=2),
            SimJob.single("hmmer_like", "nucache", ACCESSES, seed=1,
                          warmup_fraction=0.5),
            SimJob.single("hmmer_like", "nucache", ACCESSES, seed=1,
                          prefetcher="stride"),
            SimJob.single("hmmer_like", "nucache", ACCESSES, seed=1,
                          deli_ways=4),
            SimJob.workload(("hmmer_like",), "nucache", ACCESSES, seed=1),
        ]
        keys = {job.key() for job in variants}
        assert base.key() not in keys
        assert len(keys) == len(variants)

    def test_override_order_is_irrelevant(self):
        a = SimJob(members=("x",), policy="lru", accesses=10, seed=0,
                   overrides=(("b", 2), ("a", 1)))
        b = SimJob(members=("x",), policy="lru", accesses=10, seed=0,
                   overrides=(("a", 1), ("b", 2)))
        assert a.key() == b.key()

    def test_mix_constructor_resolves_members(self):
        job = SimJob.mix("mix2_1", "lru", ACCESSES)
        assert job.members == tuple(mix_members("mix2_1"))
        assert job.kind == "workload"

    def test_round_trip(self):
        job = SimJob.single("hmmer_like", "nucache", ACCESSES, seed=7,
                            capacity_cores=4, deli_ways=6)
        clone = SimJob.from_dict(json.loads(json.dumps(job.to_dict())))
        assert clone == job
        assert clone.key() == job.key()

    def test_capacity_fraction_keeps_integral_keys(self):
        alone = SimJob.alone("art_like", 2, 10_000)
        assert alone.key() == (
            "b54c927e9850df38afb442803aba11571b2628a51e1b7542de935dc18617c563"
        )
        assert SimJob.single("art_like", "lru", 10_000, capacity_cores=2.0) == alone
        whole = SimJob.single("art_like", "nucache", 10_000, capacity_cores=1.0)
        assert whole.key() == SimJob.single("art_like", "nucache", 10_000).key()
        assert whole.to_dict()["capacity_cores"] == 1
        half = SimJob.single("art_like", "nucache", 10_000, capacity_cores=0.5)
        clone = SimJob.from_dict(json.loads(json.dumps(half.to_dict())))
        assert clone == half
        assert clone.capacity_cores == 0.5
        assert clone.key() == half.key() != whole.key()
        assert whole.describe() == "single:art_like@nucache n=10000"
        assert half.describe() == "single:art_like@nucache n=10000 cap=0.5"

    @pytest.mark.parametrize("capacity", [3, 0.75, 0.3, 0, -1])
    def test_capacity_without_a_power_of_two_llc_is_refused(self, capacity):
        with pytest.raises(ExecError):
            SimJob.single("art_like", "lru", 10_000, capacity_cores=capacity)

    @pytest.mark.parametrize(
        "name, value, label",
        [
            ("seed", 7, " seed=7"),
            ("warmup_fraction", 0.1, " warmup=0.1"),
            ("prefetcher", "stride", " prefetcher=stride"),
            ("memory_model", "bandwidth", " memory=bandwidth"),
        ],
    )
    def test_jobs_differing_in_one_field_get_distinct_labels(self, name, value, label):
        job = SimJob.mix("mix2_1", "lru", 10_000)
        other = replace(job, **{name: value})
        assert job.describe() == "workload:art_like+swim_like@lru n=10000"
        assert other.describe() == job.describe() + label
        assert other.key() != job.key()

    def test_probe_job(self):
        probe = SimJob.probe("art_like", 10_000)
        assert probe.key() == (
            "1de9fa2072a6ab2f85975318dcc6b424b3511ca2204b1cfac0896e02f4d5b572"
        )
        assert probe.describe() == "probe:art_like n=10000"
        reseeded = SimJob.probe("art_like", 10_000, seed=3)
        assert reseeded.describe() == "probe:art_like n=10000 seed=3"
        assert probe.key() != SimJob.single("art_like", "lru", 10_000).key()
        clone = SimJob.from_dict(json.loads(json.dumps(probe.to_dict())))
        assert clone == probe and clone.key() == probe.key()
        with pytest.raises(ExecError):
            SimJob(members=("a", "b"), policy="lru", accesses=10, seed=0,
                   kind="probe")

    def test_validation(self):
        with pytest.raises(ExecError):
            SimJob(members=(), policy="lru", accesses=10, seed=0)
        with pytest.raises(ExecError):
            SimJob(members=("a", "b"), policy="lru", accesses=10, seed=0,
                   kind="single")
        with pytest.raises(ExecError):
            SimJob(members=("a",), policy="lru", accesses=0, seed=0)
        with pytest.raises(ExecError):
            SimJob(members=("a",), policy="lru", accesses=10, seed=0,
                   kind="warp")
        with pytest.raises(ExecError):
            SimJob.single("a", "lru", 10, deli_ways=[1, 2])

    def test_execute_matches_runner(self):
        job = SimJob.single("hmmer_like", "lru", ACCESSES)
        assert execute_job(job).to_dict() == run_single(
            "hmmer_like", "lru", ACCESSES
        ).to_dict()


# ----------------------------------------------------------------------
# SimResult serialization (satellite: exact round-trip incl. llc_extra)
# ----------------------------------------------------------------------


class TestSimResultSerialization:
    def test_exact_round_trip_including_llc_extra(self):
        result = run_single("art_like", "nucache", ACCESSES)
        assert result.llc_extra, "nucache runs must report llc_extra"
        clone = SimResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert clone == result
        assert clone.llc_extra == result.llc_extra
        assert clone.llc_occupancy_by_core == result.llc_occupancy_by_core
        for original, copy in zip(result.cores, clone.cores):
            assert copy == original
            assert copy.ipc == original.ipc  # exact, not approximate

    def test_core_result_round_trip(self):
        core = CoreResult(
            core_id=3, workload="w", instructions=10, cycles=25, ipc=0.4,
            mpki=1.25, llc_accesses=7, llc_misses=2,
            level_counts={"l1": 5, "llc": 2},
        )
        assert CoreResult.from_dict(json.loads(json.dumps(core.to_dict()))) == core


# ----------------------------------------------------------------------
# ResultStore
# ----------------------------------------------------------------------


class TestResultStore:
    def test_miss_then_hit(self, store):
        job = SimJob.single("hmmer_like", "lru", ACCESSES)
        assert store.get(job) is None
        assert job not in store
        result = execute_job(job)
        store.put(job, result)
        assert job in store
        assert store.get(job) == result

    def test_versioned_layout(self, store, tmp_path):
        job = SimJob.single("hmmer_like", "lru", ACCESSES)
        path = store.put(job, execute_job(job))
        assert path.parent.parent == tmp_path / "store" / f"v{ENGINE_VERSION}"
        assert path.name == f"{job.key()}.json"

    def test_corrupted_entry_is_a_miss_and_quarantined(self, store):
        job = SimJob.single("hmmer_like", "lru", ACCESSES)
        path = store.put(job, execute_job(job))
        path.write_text("{ not json", encoding="utf-8")
        assert store.get(job) is None
        assert not path.exists()  # moved aside, see quarantine tests
        assert store.stats().quarantined == 1

    def test_entry_missing_fields_is_a_miss(self, store):
        job = SimJob.single("hmmer_like", "lru", ACCESSES)
        path = store.put(job, execute_job(job))
        path.write_text(json.dumps({"job": job.to_dict()}), encoding="utf-8")
        assert store.get(job) is None

    def test_contains_delegates_to_validated_read(self, store):
        job = SimJob.single("hmmer_like", "lru", ACCESSES)
        path = store.put(job, execute_job(job))
        assert job in store
        path.write_text("{ not json", encoding="utf-8")
        assert job not in store  # would have been True with a bare is_file()

    def test_leaked_tmp_files_excluded_and_swept(self, store):
        import os
        import time

        job = SimJob.single("hmmer_like", "lru", ACCESSES)
        path = store.put(job, execute_job(job))
        leaked = path.with_name(f".{path.name}.999.tmp")
        leaked.write_text("torn", encoding="utf-8")

        assert store.stats().entries == 1  # tmp files are not entries

        # prune leaves young tmp files alone (a live writer may own them)
        assert store.prune(keep=10) == 0
        assert leaked.exists()
        # ...but sweeps them once they are clearly stale.
        old = time.time() - 7200
        os.utime(leaked, (old, old))
        store.prune(keep=10)
        assert not leaked.exists()
        assert path.exists()

    def test_clear_sweeps_tmp_and_quarantine(self, store):
        job = SimJob.single("hmmer_like", "lru", ACCESSES)
        path = store.put(job, execute_job(job))
        leaked = path.with_name(f".{path.name}.999.tmp")
        leaked.write_text("torn", encoding="utf-8")
        path.write_text("{ bad", encoding="utf-8")
        assert store.get(job) is None  # quarantines the bad entry
        store.put(job, execute_job(job))
        assert store.clear() == 1
        assert not leaked.exists()
        assert store.stats().quarantined == 0

    def test_stats_clear(self, store):
        jobs = [
            SimJob.single("hmmer_like", "lru", ACCESSES),
            SimJob.single("hmmer_like", "lru", ACCESSES, seed=3),
        ]
        for job in jobs:
            store.put(job, execute_job(job))
        stats = store.stats()
        assert stats.entries == 2
        assert stats.total_bytes > 0
        assert store.clear() == 2
        assert store.stats().entries == 0

    def test_prune_keep(self, store):
        result = execute_job(SimJob.single("hmmer_like", "lru", ACCESSES))
        jobs = [
            SimJob.single("hmmer_like", "lru", ACCESSES, seed=seed)
            for seed in range(5)
        ]
        for job in jobs:
            store.put(job, result)
        assert store.prune(keep=2) == 3
        assert store.stats().entries == 2

    def test_prune_age(self, store):
        import os
        import time

        job = SimJob.single("hmmer_like", "lru", ACCESSES)
        path = store.put(job, execute_job(job))
        old = time.time() - 10 * 86400
        os.utime(path, (old, old))
        assert store.prune(max_age_days=5) == 1
        assert store.stats().entries == 0


# ----------------------------------------------------------------------
# Scheduler
# ----------------------------------------------------------------------


def _grid():
    return [
        SimJob.single(name, policy, ACCESSES)
        for name in ("hmmer_like", "art_like")
        for policy in ("lru", "nucache")
    ]


class TestScheduler:
    def test_parallel_matches_serial_exactly(self):
        serial = Scheduler(jobs=1).run(_grid())
        parallel = Scheduler(jobs=4).run(_grid())
        assert [r.to_dict() for r in parallel] == [r.to_dict() for r in serial]

    def test_cache_hit_on_second_run(self, store):
        first = Scheduler(jobs=1, store=store)
        results = first.run(_grid())
        assert first.last_report.completed == 4
        assert first.last_report.cached == 0

        second = Scheduler(jobs=1, store=store)
        again = second.run(_grid())
        assert second.last_report.cached == 4
        assert second.last_report.completed == 0
        assert second.last_report.cache_fraction == 1.0
        assert [r.to_dict() for r in again] == [r.to_dict() for r in results]

    def test_any_field_change_invalidates(self, store):
        Scheduler(jobs=1, store=store).run(_grid())
        changed = Scheduler(jobs=1, store=store)
        changed.run([SimJob.single("hmmer_like", "lru", ACCESSES, seed=99)])
        assert changed.last_report.cached == 0
        assert changed.last_report.completed == 1

    def test_corrupted_store_entry_recovers_by_recompute(self, store):
        job = SimJob.single("hmmer_like", "lru", ACCESSES)
        fresh = Scheduler(jobs=1, store=store)
        (expected,) = fresh.run([job])
        store._path(job.key()).write_text("garbage", encoding="utf-8")
        recovered = Scheduler(jobs=1, store=store)
        (result,) = recovered.run([job])  # must not crash
        assert recovered.last_report.completed == 1
        assert result.to_dict() == expected.to_dict()
        assert store.get(job) is not None  # re-persisted

    def test_duplicates_simulated_once(self, store):
        calls = []

        def counting_execute(job):
            calls.append(job.key())
            return execute_job(job)

        job = SimJob.single("hmmer_like", "lru", ACCESSES)
        scheduler = Scheduler(jobs=1, store=store, execute=counting_execute)
        results = scheduler.run([job, job, job])
        assert len(calls) == 1
        assert scheduler.last_report.completed == 3  # occurrence-weighted
        assert results[0] is results[1] is results[2]

    def test_progress_hook_reports_counts(self, store):
        events = []
        scheduler = Scheduler(jobs=1, store=store, progress=events.append)
        scheduler.run(_grid())
        kinds = [event["event"] for event in events]
        assert kinds.count("completed") == 4
        assert kinds[-1] == "batch"
        report = events[-1]["report"]
        assert report.completed == 4
        assert report.failed == 0
        assert report.wall_time > 0
        done_values = [e["done"] for e in events if e["event"] == "completed"]
        assert done_values == [1, 2, 3, 4]

    def test_failure_raises_in_strict_mode(self):
        bad = SimJob.single("no_such_benchmark", "lru", ACCESSES)
        with pytest.raises(ExecError, match="no_such_benchmark"):
            Scheduler(jobs=1, retries=0).run([bad])

    def test_failure_reported_when_not_strict(self):
        bad = SimJob.single("no_such_benchmark", "lru", ACCESSES)
        good = SimJob.single("hmmer_like", "lru", ACCESSES)
        scheduler = Scheduler(jobs=1, retries=0, strict=False)
        results = scheduler.run([bad, good])
        assert results[0] is None
        assert results[1] is not None
        assert scheduler.last_report.failed == 1
        assert scheduler.last_report.completed == 1

    def test_retry_recovers_flaky_job(self):
        attempts = []

        def flaky_execute(job):
            attempts.append(job.key())
            if len(attempts) == 1:
                raise RuntimeError("transient worker death")
            return execute_job(job)

        job = SimJob.single("hmmer_like", "lru", ACCESSES)
        scheduler = Scheduler(jobs=1, retries=1, execute=flaky_execute)
        (result,) = scheduler.run([job])
        assert len(attempts) == 2
        assert result.to_dict() == execute_job(job).to_dict()
        assert scheduler.last_report.retried == 1
        assert scheduler.last_report.completed == 1

    def test_retries_exhausted_fails(self):
        def always_broken(job):
            raise RuntimeError("still dead")

        scheduler = Scheduler(jobs=1, retries=2, strict=False,
                              execute=always_broken, backoff_base=0.001)
        (result,) = scheduler.run([SimJob.single("hmmer_like", "lru", ACCESSES)])
        assert result is None
        assert scheduler.last_report.retried == 2
        assert scheduler.last_report.failed == 1

    @pytest.mark.parametrize(
        ("knob", "value"), [("singleflight", True), ("lease_ttl", 30.0)]
    )
    def test_compute_lease_knobs_are_gone(self, knob, value):
        """Schedulers sharing a store never coordinate: nothing to set."""
        with pytest.raises(TypeError, match=knob):
            Scheduler(jobs=1, **{knob: value})

    def test_backoff_is_exponential_with_deterministic_jitter(self, monkeypatch):
        def run_once():
            sleeps = []
            monkeypatch.setattr(
                "repro.exec.scheduler.time.sleep", sleeps.append
            )

            def always_broken(job):
                raise RuntimeError("still dead")

            scheduler = Scheduler(jobs=1, retries=3, strict=False,
                                  execute=always_broken,
                                  backoff_base=0.1, backoff_cap=10.0)
            scheduler.run([SimJob.single("hmmer_like", "lru", ACCESSES)])
            return sleeps

        first = run_once()
        assert len(first) == 3  # one backoff per retry round
        # Exponential shape: each round's ceiling doubles; jitter keeps
        # every delay within [0.5, 1.0] of that ceiling.
        for round_no, delay in enumerate(first, start=1):
            ceiling = 0.1 * (2 ** (round_no - 1))
            assert 0.5 * ceiling <= delay <= ceiling
        assert first == run_once()  # jitter is seeded, not wall-clock

    def test_backoff_cap_limits_delay(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr("repro.exec.scheduler.time.sleep", sleeps.append)

        def always_broken(job):
            raise RuntimeError("still dead")

        scheduler = Scheduler(jobs=1, retries=6, strict=False,
                              execute=always_broken,
                              backoff_base=0.1, backoff_cap=0.25)
        scheduler.run([SimJob.single("hmmer_like", "lru", ACCESSES)])
        assert len(sleeps) == 6
        assert all(delay <= 0.25 for delay in sleeps)

    def test_retry_events_carry_attempt_timings(self):
        events = []

        def flaky_execute(job):
            if not [e for e in events if e["event"] == "retry"]:
                raise RuntimeError("transient")
            return execute_job(job)

        job = SimJob.single("hmmer_like", "lru", ACCESSES)
        scheduler = Scheduler(jobs=1, retries=1, progress=events.append,
                              execute=flaky_execute, backoff_base=0.001)
        scheduler.run([job])
        (retry_event,) = [e for e in events if e["event"] == "retry"]
        assert retry_event["attempt"] == 1
        assert retry_event["elapsed"] is not None
        assert retry_event["elapsed"] >= 0
        assert retry_event["backoff"] > 0


# ----------------------------------------------------------------------
# Failure forensics (traceback / invariant payload preservation)
# ----------------------------------------------------------------------


def _raise_value_error(job):
    raise ValueError("boom-sentinel-1187")


def _raise_invariant_violation(job):
    from repro.common.errors import InvariantViolation

    raise InvariantViolation(
        "cache invariant violated at unit test: set 3: broken",
        violations=["set 3: broken", "llc: hits drifted"],
        snapshot={"policy": "lru", "counters": {"hits": 1}},
    )


class TestFailureForensics:
    def test_inline_failure_preserves_traceback(self):
        scheduler = Scheduler(jobs=1, retries=0, strict=False,
                              execute=_raise_value_error)
        scheduler.run([SimJob.single("hmmer_like", "lru", ACCESSES)])
        (outcome,) = scheduler.last_outcomes.values()
        assert outcome["status"] == "failed"
        assert "ValueError: boom-sentinel-1187" in outcome["traceback"]
        assert "_raise_value_error" in outcome["traceback"]  # worker frame

    def test_invariant_payload_recorded(self):
        scheduler = Scheduler(jobs=1, retries=0, strict=False,
                              execute=_raise_invariant_violation)
        scheduler.run([SimJob.single("hmmer_like", "lru", ACCESSES)])
        (outcome,) = scheduler.last_outcomes.values()
        assert outcome["violations"] == ["set 3: broken", "llc: hits drifted"]
        assert outcome["snapshot"]["counters"] == {"hits": 1}

    def test_forensics_survive_the_process_pool(self):
        jobs = [
            SimJob.single("hmmer_like", "lru", ACCESSES),
            SimJob.single("art_like", "lru", ACCESSES),
        ]
        scheduler = Scheduler(jobs=2, retries=0, strict=False,
                              execute=_raise_invariant_violation)
        scheduler.run(jobs)
        for job in jobs:
            outcome = scheduler.last_outcomes[job.key()]
            assert outcome["status"] == "failed"
            # The worker-side frames come back through the
            # _RemoteTraceback cause chain and must be in the string.
            assert "InvariantViolation" in outcome["traceback"]
            assert "_raise_invariant_violation" in outcome["traceback"]
            assert outcome["violations"] == ["set 3: broken", "llc: hits drifted"]
            assert outcome["snapshot"]["policy"] == "lru"

    def test_recovered_job_carries_no_stale_forensics(self):
        attempts = []

        def flaky(job):
            attempts.append(1)
            if len(attempts) == 1:
                raise ValueError("transient-xyzzy")
            return execute_job(job)

        scheduler = Scheduler(jobs=1, retries=1, execute=flaky,
                              backoff_base=0.001)
        scheduler.run([SimJob.single("hmmer_like", "lru", ACCESSES)])
        (outcome,) = scheduler.last_outcomes.values()
        assert outcome["status"] == "completed"
        assert "traceback" not in outcome
        assert "violations" not in outcome

    def test_strict_error_includes_first_traceback(self):
        scheduler = Scheduler(jobs=1, retries=0, execute=_raise_value_error)
        with pytest.raises(ExecError, match="first failure traceback"):
            scheduler.run([SimJob.single("hmmer_like", "lru", ACCESSES)])
        try:
            scheduler = Scheduler(jobs=1, retries=0, execute=_raise_value_error)
            scheduler.run([SimJob.single("hmmer_like", "lru", ACCESSES)])
        except ExecError as exc:
            assert "boom-sentinel-1187" in str(exc)

    def test_plain_error_carries_no_snapshot(self):
        # Only InvariantViolation contributes violations/snapshot keys;
        # ordinary failures must stay compact in the journal.
        scheduler = Scheduler(jobs=1, retries=0, strict=False,
                              execute=_raise_value_error)
        scheduler.run([SimJob.single("hmmer_like", "lru", ACCESSES)])
        (outcome,) = scheduler.last_outcomes.values()
        assert "snapshot" not in outcome  # plain errors carry no snapshot


# ----------------------------------------------------------------------
# Package surface
# ----------------------------------------------------------------------


class TestPublicSurface:
    @pytest.mark.parametrize("module_name", ["repro.exec", "repro.exec.stores"])
    def test_every_exported_name_resolves(self, module_name):
        """A stale ``__all__`` entry would break ``import *`` of the package."""
        module = importlib.import_module(module_name)
        assert [name for name in module.__all__ if not hasattr(module, name)] == []
        assert len(set(module.__all__)) == len(module.__all__)


# ----------------------------------------------------------------------
# Context defaults and store-backed alone_ipc
# ----------------------------------------------------------------------


class TestContext:
    def test_configure_and_reset(self):
        config = exec_context.configure(jobs=3, use_cache=False)
        assert config.jobs == 3
        assert exec_context.resolve_store() is None
        exec_context.reset()
        assert exec_context.current().jobs == 1
        assert exec_context.resolve_store() is not None

    def test_jobs_env_default(self, monkeypatch):
        monkeypatch.setenv(exec_context.JOBS_ENV_VAR, "5")
        exec_context.reset()
        assert exec_context.current().jobs == 5

    def test_bad_jobs_env_rejected(self, monkeypatch):
        monkeypatch.setenv(exec_context.JOBS_ENV_VAR, "zero")
        exec_context.reset()
        with pytest.raises(ExecError):
            exec_context.current()

    def test_scheduler_progress_knob_is_gone(self):
        """Only a ``Scheduler`` built directly takes a progress hook."""
        with pytest.raises(TypeError, match="progress"):
            exec_context.configure(progress=print)
        with pytest.raises(TypeError, match="progress"):
            exec_context.get_scheduler(progress=print)
        assert not hasattr(exec_context.current(), "progress")

    def test_run_jobs_accumulates_totals(self):
        exec_context.reset_totals()
        exec_context.run_jobs([SimJob.single("hmmer_like", "lru", ACCESSES)])
        totals = exec_context.totals()
        assert totals.total == 1
        assert totals.completed + totals.cached == 1

    def test_alone_ipc_served_from_store_across_memo_clears(self):
        first = alone_ipc("twolf_like", 2, ACCESSES)
        clear_alone_memo()
        store = exec_context.resolve_store()
        job = SimJob.alone("twolf_like", 2, ACCESSES)
        assert store.get(job) is not None
        second = alone_ipc("twolf_like", 2, ACCESSES)
        assert second == first


# ----------------------------------------------------------------------
# End-to-end: the experiment harness through the scheduler
# ----------------------------------------------------------------------


class TestHarnessEquivalence:
    def test_mix_speedups_identical_serial_vs_parallel(self):
        from repro.experiments.harness import mix_weighted_speedups

        exec_context.configure(jobs=1, use_cache=False)
        serial = mix_weighted_speedups("mix2_1", ("lru", "nucache"), ACCESSES)
        clear_alone_memo()
        exec_context.configure(jobs=4, use_cache=False)
        parallel = mix_weighted_speedups("mix2_1", ("lru", "nucache"), ACCESSES)
        assert parallel == serial
