"""Chaos tests: the crash/timeout/corruption matrix.

Every test drives the scheduler through deterministic injected faults
(:mod:`repro.exec.faults`) and asserts the end state is byte-identical
to an undisturbed serial run — the resilience layer must be
observationally invisible.  Also covers result validation and the
store's quarantine path: a bad entry is never served and never deleted.
"""

from __future__ import annotations

import json

import pytest

from repro.common.errors import ExecError
from repro.exec import (
    FaultPlan,
    FaultyExecute,
    FaultyStore,
    FileResultStore,
    InjectedFault,
    Scheduler,
    SimJob,
    execute_job,
    validate_result,
)
from repro.exec import context as exec_context
from repro.exec.faults import FAULTS_ENV_VAR, FAULTS_SEED_ENV_VAR

ACCESSES = 4_000


@pytest.fixture(autouse=True)
def _fresh_exec_context():
    exec_context.reset()
    yield
    exec_context.reset()


@pytest.fixture
def store(tmp_path):
    return FileResultStore(tmp_path / "store")


def _grid():
    return [
        SimJob.single(name, policy, ACCESSES)
        for name in ("hmmer_like", "art_like")
        for policy in ("lru", "nucache")
    ]


def _clean_results(batch):
    return [r.to_dict() for r in Scheduler(jobs=1).run(batch)]


# ----------------------------------------------------------------------
# FaultPlan mechanics
# ----------------------------------------------------------------------


class TestFaultPlan:
    def test_parse_spec(self, tmp_path):
        plan = FaultPlan.parse("flake=0.5, crash=0.25,hang", scratch=str(tmp_path))
        assert plan.flake == 0.5
        assert plan.crash == 0.25
        assert plan.hang == 1.0
        assert plan.corrupt == 0.0
        assert plan.active()

    @pytest.mark.parametrize(
        "spec",
        ["segfault=1.0", "sqlite.busy", "net.conn.refused"],
        ids=["segfault", "sqlite.busy", "net.conn.refused"],
    )
    def test_parse_rejects_unknown_kind(self, spec):
        # A kind of a removed backend is unknown, not silently ignored.
        with pytest.raises(ExecError, match="unknown fault kind"):
            FaultPlan.parse(spec)

    def test_parse_rejects_bad_rates(self):
        with pytest.raises(ExecError, match="bad fault rate"):
            FaultPlan.parse("flake=lots")
        with pytest.raises(ExecError, match="outside"):
            FaultPlan(flake=1.5)

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV_VAR, raising=False)
        assert FaultPlan.from_env() is None
        monkeypatch.setenv(FAULTS_ENV_VAR, "flake=0.5")
        monkeypatch.setenv(FAULTS_SEED_ENV_VAR, "9")
        plan = FaultPlan.from_env()
        assert plan.flake == 0.5
        assert plan.seed == 9

    def test_selection_is_deterministic_and_seeded(self, tmp_path):
        keys = [job.key() for job in _grid()]
        a = FaultPlan(flake=0.5, seed=1, scratch=str(tmp_path))
        b = FaultPlan(flake=0.5, seed=1, scratch=str(tmp_path))
        c = FaultPlan(flake=0.5, seed=2, scratch=str(tmp_path))
        picks = [a.selected("flake", key) for key in keys]
        assert picks == [b.selected("flake", key) for key in keys]
        assert picks != [c.selected("flake", key) for key in keys]

    def test_fire_is_once_per_kind_and_key(self, tmp_path):
        plan = FaultPlan(flake=1.0, crash=1.0, scratch=str(tmp_path))
        assert plan.fire("flake", "k1") is True
        assert plan.fire("flake", "k1") is False  # marker persists
        assert plan.fire("crash", "k1") is True  # independent per kind
        assert plan.fire("flake", "k2") is True

    def test_env_activates_scheduler_wrappers(self, monkeypatch, tmp_path):
        monkeypatch.setenv(FAULTS_ENV_VAR, "flake=1.0")
        scheduler = exec_context.get_scheduler()
        assert isinstance(scheduler.execute, FaultyExecute)
        assert isinstance(scheduler.store, FaultyStore)
        monkeypatch.delenv(FAULTS_ENV_VAR)
        scheduler = exec_context.get_scheduler()
        assert scheduler.execute is execute_job
        assert isinstance(scheduler.store, FileResultStore)


# ----------------------------------------------------------------------
# Injected faults: results must stay byte-identical to a clean run
# ----------------------------------------------------------------------


class TestChaosEquivalence:
    def test_flake_every_job_recovers_identically(self, store, tmp_path):
        batch = _grid()
        plan = FaultPlan(flake=1.0, seed=3, scratch=str(tmp_path / "markers"))
        scheduler = Scheduler(
            jobs=1, store=store, retries=1,
            execute=FaultyExecute(plan), backoff_base=0.001,
        )
        chaotic = scheduler.run(batch)
        assert scheduler.last_report.retried == len(batch)
        assert scheduler.last_report.failed == 0
        assert [r.to_dict() for r in chaotic] == _clean_results(batch)

    def test_flake_exhausting_retries_fails_cleanly(self, tmp_path):
        # Rate 1.0 with no marker reuse: a fresh scratch per attempt is
        # impossible, so instead deny retries entirely.
        plan = FaultPlan(flake=1.0, seed=3, scratch=str(tmp_path / "markers"))
        scheduler = Scheduler(
            jobs=1, retries=0, strict=False, execute=FaultyExecute(plan),
        )
        results = scheduler.run(_grid()[:1])
        # The single flake was absorbed... by the only attempt: failure.
        assert results == [None]
        assert scheduler.last_report.failed == 1
        assert "InjectedFault" in scheduler.last_outcomes[_grid()[0].key()]["error"]

    def test_inline_crash_degrades_to_exception(self, tmp_path):
        plan = FaultPlan(crash=1.0, seed=0, scratch=str(tmp_path / "markers"))
        job = _grid()[0]
        with pytest.raises(InjectedFault, match="inline"):
            FaultyExecute(plan)(job)
        # Second call runs clean (marker consumed the fault).
        assert FaultyExecute(plan)(job).to_dict() == execute_job(job).to_dict()

    def test_worker_crash_in_pool_recovers_identically(self, store, tmp_path):
        batch = _grid()
        plan = FaultPlan(crash=0.3, seed=13, scratch=str(tmp_path / "markers"))
        crashed = [job.key() for job in batch if plan.selected("crash", job.key())]
        # One crashing job: an innocent observer of the broken pool can
        # be charged at most once, so retries=2 always suffices.
        assert len(crashed) == 1, "seed must select exactly one crash"
        scheduler = Scheduler(
            jobs=2, store=store, retries=2,
            execute=FaultyExecute(plan), backoff_base=0.001,
        )
        chaotic = scheduler.run(batch)
        assert scheduler.last_report.failed == 0
        assert [r.to_dict() for r in chaotic] == _clean_results(batch)

    def test_hang_trips_timeout_then_recovers_identically(self, store, tmp_path):
        batch = _grid()[:2]
        plan = FaultPlan(
            hang=1.0, seed=0, hang_seconds=20.0,
            scratch=str(tmp_path / "markers"),
        )
        scheduler = Scheduler(
            jobs=2, store=store, timeout=1.5, retries=1,
            execute=FaultyExecute(plan), backoff_base=0.001,
        )
        chaotic = scheduler.run(batch)
        assert scheduler.last_report.failed == 0
        assert scheduler.last_report.retried >= 1
        assert [r.to_dict() for r in chaotic] == _clean_results(batch)

    def test_corrupted_store_entries_recompute_identically(self, store, tmp_path):
        batch = _grid()
        plan = FaultPlan(corrupt=1.0, seed=7, scratch=str(tmp_path / "markers"))
        first = Scheduler(jobs=1, store=FaultyStore(store, plan))
        baseline = [r.to_dict() for r in first.run(batch)]
        assert baseline == _clean_results(batch)

        # Every entry was damaged on write: the rerun must quarantine
        # them all, recompute, and still match byte for byte.
        second = Scheduler(jobs=1, store=store)
        recovered = [r.to_dict() for r in second.run(batch)]
        assert recovered == baseline
        assert second.last_report.cached == 0
        assert second.last_report.completed == len(batch)
        assert store.stats().quarantined == len(batch)

        # Clean entries were re-persisted; a third run is all hits.
        third = Scheduler(jobs=1, store=store)
        served = [r.to_dict() for r in third.run(batch)]
        assert served == baseline
        assert third.last_report.cached == len(batch)


# ----------------------------------------------------------------------
# Result validation and quarantine
# ----------------------------------------------------------------------


class TestValidation:
    def test_valid_result_passes(self):
        job = _grid()[0]
        result = execute_job(job)
        assert validate_result(result, job) == []
        assert result.validate(job) == []

    def test_violations_are_reported(self):
        job = _grid()[0]
        result = execute_job(job)
        result.cores[0].llc_misses = result.cores[0].llc_accesses + 1
        violations = validate_result(result, job)
        assert any("exceeds" in v for v in violations)
        result.cores[0].ipc = float("inf")
        assert any("finite" in v for v in validate_result(result, job))

    def test_job_consistency_checked(self):
        job = _grid()[0]
        other = SimJob.single("twolf_like", job.policy, ACCESSES)
        result = execute_job(job)
        assert any("expected" in v for v in validate_result(result, other))

    def test_scheduler_never_returns_invalid_result(self, store):
        def sick_execute(job):
            result = execute_job(job)
            result.cores[0].llc_misses = result.cores[0].llc_accesses + 1
            return result

        job = _grid()[0]
        scheduler = Scheduler(
            jobs=1, store=store, retries=1, strict=False,
            execute=sick_execute, backoff_base=0.001,
        )
        (result,) = scheduler.run([job])
        assert result is None
        assert scheduler.last_report.failed == 1
        assert "invalid result" in scheduler.last_outcomes[job.key()]["error"]
        # The invalid result must never have been persisted either.
        assert store.get(job) is None
        assert store.stats().entries == 0

    def test_store_quarantines_invalid_entry_on_read(self, store):
        job = _grid()[0]
        path = store.put(job, execute_job(job))
        from repro.exec.stores.base import inflate_entry

        payload = json.loads(inflate_entry(path.read_bytes()))
        core = payload["result"]["cores"][0]
        core["llc_misses"] = int(core["llc_accesses"]) + 1
        # Written back as v1 plain text: the reader accepts both codecs.
        path.write_text(json.dumps(payload), encoding="utf-8")

        assert store.get(job) is None  # never served
        assert not path.exists()  # moved aside...
        quarantined = list(store.quarantined_entries())
        assert len(quarantined) == 1  # ...not deleted
        reason = quarantined[0].with_name(quarantined[0].name + ".reason")
        assert "exceeds" in reason.read_text(encoding="utf-8")
        assert store.stats().quarantined == 1

    def test_store_quarantines_truncated_entry(self, store):
        job = _grid()[0]
        path = store.put(job, execute_job(job))
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        assert store.get(job) is None
        assert store.stats().quarantined == 1

    def test_contains_agrees_with_get_for_bad_entries(self, store):
        job = _grid()[0]
        path = store.put(job, execute_job(job))
        assert job in store
        path = store.put(job, execute_job(job))
        path.write_text("{ not json", encoding="utf-8")
        assert job not in store  # delegates to read-and-validate
        assert store.get(job) is None
