"""Store-level chaos: degraded mode, a shared store, fault injection.

The invariant under test everywhere here: **a sick result store never
changes simulated numbers and never aborts a batch**.  A store that
crashes on put, serves corrupted bytes, turns read-only, or disappears
entirely mid-run degrades the scheduler to compute-without-cache; the
degradation is counted and surfaced (report, trace, journal), and the
results are identical to a healthy run's.
"""

from __future__ import annotations

import pytest

from repro.common.errors import ExecError, StoreError
from repro.exec import Scheduler, SimJob, execute_job
from repro.exec import context as exec_context
from repro.exec.faults import FAULT_KINDS, FaultPlan, FaultyStore
from repro.exec.stores import FileResultStore
from repro.sim.runner import alone_ipc, clear_alone_memo

ACCESSES = 3_000


def _grid(count: int = 4):
    return [
        SimJob.single("hmmer_like", "lru", ACCESSES, seed=seed)
        for seed in range(count)
    ]


def _healthy_results(batch):
    return [execute_job(job) for job in batch]


@pytest.fixture
def store_factory(tmp_path):
    """Factory for fresh store handles over one shared directory.

    Chaos tests need several independent handles on the same store (a
    warmer, the store under test, a rerun).
    """
    return lambda: FileResultStore(tmp_path / "store")


class _DeadStore:
    """A store whose medium is entirely unusable (every op raises)."""

    def get(self, job):
        raise StoreError("medium gone")

    def put(self, job, result):
        raise StoreError("medium gone")


class _DyingStore:
    """Delegates to a real store until ``budget`` ops, then goes dark.

    Models a store yanked mid-run — NFS mount dropped, disk full — after
    some operations already succeeded.
    """

    def __init__(self, store, budget: int) -> None:
        self._store = store
        self._budget = budget

    def __getattr__(self, name):
        return getattr(self._store, name)

    def _spend(self) -> None:
        if self._budget <= 0:
            raise StoreError("store went away mid-run")
        self._budget -= 1

    def get(self, job):
        self._spend()
        return self._store.get(job)

    def put(self, job, result):
        self._spend()
        return self._store.put(job, result)


class _ReadOnlyStore:
    """Reads fine; every put fails like a read-only mount."""

    def __init__(self, store) -> None:
        self._store = store

    def __getattr__(self, name):
        return getattr(self._store, name)

    def put(self, job, result):
        raise StoreError("read-only file system")


class TestDegradedMode:
    def test_dead_store_never_aborts_and_results_match(self):
        batch = _grid()
        scheduler = Scheduler(jobs=1, store=_DeadStore())
        results = scheduler.run(batch)
        report = scheduler.last_report
        assert report.completed == len(batch)
        assert report.failed == 0
        assert report.degraded > 0
        healthy = _healthy_results(batch)
        assert [r.to_dict() for r in results] == [r.to_dict() for r in healthy]

    def test_store_dying_mid_run_completes_batch(self, store_factory):
        batch = _grid()
        # Warm two entries so the run starts with real hits, then the
        # store dies partway through the batch.
        warm = store_factory()
        for job in batch[:2]:
            warm.put(job, execute_job(job))
        dying = _DyingStore(store_factory(), budget=3)
        scheduler = Scheduler(jobs=1, store=dying)
        results = scheduler.run(batch)
        report = scheduler.last_report
        assert report.cached + report.completed == len(batch)
        assert report.failed == 0
        assert report.degraded > 0
        healthy = _healthy_results(batch)
        assert [r.to_dict() for r in results] == [r.to_dict() for r in healthy]

    def test_read_only_store_still_serves_hits(self, store_factory):
        batch = _grid()
        warm = store_factory()
        for job in batch[:2]:
            warm.put(job, execute_job(job))
        scheduler = Scheduler(jobs=1, store=_ReadOnlyStore(store_factory()))
        results = scheduler.run(batch)
        report = scheduler.last_report
        assert report.cached == 2  # reads still work
        assert report.completed == 2
        assert report.failed == 0
        assert report.degraded == 2  # the two failed puts, counted
        healthy = _healthy_results(batch)
        assert [r.to_dict() for r in results] == [r.to_dict() for r in healthy]

    def test_alone_ipc_degrades_like_a_scheduled_lookup(self, monkeypatch):
        exec_context.reset()
        clear_alone_memo()
        healthy = alone_ipc("hmmer_like", 2, ACCESSES)
        clear_alone_memo()
        monkeypatch.setattr(exec_context, "resolve_store", _DeadStore)
        exec_context.reset_totals()
        try:
            assert alone_ipc("hmmer_like", 2, ACCESSES) == healthy
            assert exec_context.totals().degraded > 0
        finally:
            clear_alone_memo()
            exec_context.reset()

    def test_degradation_is_invisible_in_healthy_runs(self, tmp_path):
        scheduler = Scheduler(jobs=1, store=FileResultStore(tmp_path / "s"))
        scheduler.run(_grid(2))
        report = scheduler.last_report
        assert "degraded" not in report.describe()
        assert report.store_fields() == {}

    def test_degradation_is_visible_in_report_and_journal_fields(self):
        scheduler = Scheduler(jobs=1, store=_DeadStore())
        scheduler.run(_grid(2))
        report = scheduler.last_report
        assert "store fallbacks (degraded)" in report.describe()
        assert report.degraded > 0
        assert report.store_fields() == {"degraded": report.degraded}

    def test_journal_batch_record_carries_store_fields(self, tmp_path, monkeypatch):
        from repro.exec.journal import RunJournal, load_journal

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        journal = RunJournal.create(experiments=["x"], jobs=1, use_cache=True)
        healthy = Scheduler(jobs=1, store=None)
        healthy.run(_grid(1))
        journal.record_batch(healthy.last_outcomes, healthy.last_report)
        degraded = Scheduler(jobs=1, store=_DeadStore())
        degraded.run(_grid(1))
        journal.record_batch(degraded.last_outcomes, degraded.last_report)
        journal.close("completed")
        records, warnings = load_journal(journal.path)
        assert not warnings
        batches = [r for r in records if r.get("record") == "batch"]
        assert "store" not in batches[0]  # healthy: byte-identical record
        assert batches[1]["store"]["degraded"] > 0


class TestStoreFaultInjection:
    def test_put_crash_degrades_not_fails(self, store_factory, tmp_path):
        batch = _grid()
        plan = FaultPlan(store_put_crash=1.0, scratch=str(tmp_path / "m"))
        store = FaultyStore(store_factory(), plan)
        scheduler = Scheduler(jobs=1, store=store)
        results = scheduler.run(batch)
        report = scheduler.last_report
        assert report.completed == len(batch)
        assert report.failed == 0
        assert report.degraded == len(batch)  # every put crashed once
        healthy = _healthy_results(batch)
        assert [r.to_dict() for r in results] == [r.to_dict() for r in healthy]

    def test_get_corruption_quarantines_and_recomputes(
        self, store_factory, tmp_path
    ):
        batch = _grid()
        real = store_factory()
        for job in batch:
            real.put(job, execute_job(job))
        plan = FaultPlan(store_get_corrupt=1.0, scratch=str(tmp_path / "m"))
        store = FaultyStore(store_factory(), plan)
        scheduler = Scheduler(jobs=1, store=store)
        results = scheduler.run(batch)
        report = scheduler.last_report
        # Every warm entry was damaged just before its read: quarantined,
        # recomputed, and re-published — never served corrupt.
        assert report.completed == len(batch)
        assert report.cached == 0
        assert store.stats().quarantined == len(batch)
        healthy = _healthy_results(batch)
        assert [r.to_dict() for r in results] == [r.to_dict() for r in healthy]
        # The faults fired once: a rerun is served entirely from cache.
        rerun = Scheduler(jobs=1, store=store)
        rerun.run(batch)
        assert rerun.last_report.cached == len(batch)

    def test_dotted_kinds_parse_from_spec(self):
        plan = FaultPlan.parse("store.put.crash=0.5,store.get.corrupt")
        assert plan.store_put_crash == 0.5
        assert plan.store_get_corrupt == 1.0
        assert plan.corrupt == 0.0
        assert plan.active()
        with pytest.raises(ExecError, match="expected one of") as raised:
            FaultPlan.parse("store.lease.orphan=0.5")
        for kind in FAULT_KINDS:
            assert repr(kind) in str(raised.value)


class TestSharedStore:
    def test_second_scheduler_is_fully_cache_served(self, store_factory):
        batch = _grid()
        first = Scheduler(jobs=1, store=store_factory())
        first.run(batch)
        assert first.last_report.completed == len(batch)
        second = Scheduler(jobs=1, store=store_factory())
        second.run(batch)
        assert second.last_report.cached == len(batch)
        assert second.last_report.completed == 0

    def test_overlapping_cold_schedulers_both_compute_and_agree(
        self, store_factory
    ):
        """Two runs that both miss both compute; their puts agree.

        The outer run's first simulation runs a whole second scheduler
        over the batch, after the outer cache-first pass has already
        missed every job: the two runs overlap the way two processes
        started at once on one store do.
        """
        batch = _grid()
        inner = Scheduler(jobs=1, store=store_factory())
        inner_results = []

        def execute(job):
            if not inner_results:
                inner_results.extend(inner.run(batch))
            return execute_job(job)

        outer = Scheduler(jobs=1, store=store_factory(), execute=execute)
        outer_results = outer.run(batch)
        healthy = _healthy_results(batch)
        assert inner_results == healthy
        assert outer_results == healthy
        assert inner.last_report.completed == len(batch)
        assert outer.last_report.completed == len(batch)
        stats = store_factory().stats()
        assert (stats.entries, stats.quarantined) == (len(batch), 0)
        third = Scheduler(jobs=1, store=store_factory())
        assert third.run(batch) == healthy
        assert third.last_report.cached == len(batch)


class TestRobustnessCLI:
    def test_cache_stats_is_one_byte_stable_line(self, tmp_path, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))

        # Two invocations of an idle store render identically.
        import io
        from contextlib import redirect_stdout

        lines = []
        for _ in range(2):
            buffer = io.StringIO()
            with redirect_stdout(buffer):
                assert main(["cache", "stats", "--store", "fs"]) == 0
            lines.append(buffer.getvalue())
        assert lines[0] == lines[1]
        store = FileResultStore(tmp_path / "cache")
        assert lines[0] == store.stats().describe() + "\n"

    def test_cache_stats_counts_quarantined_entries(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        store = FileResultStore(tmp_path / "cache")
        good, torn = _grid(2)
        store.put(good, execute_job(good))
        path = store.put(torn, execute_job(torn))
        path.write_bytes(path.read_bytes()[:10])
        assert store.get(torn) is None  # quarantined on read
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 1
        assert out.startswith("1 entries, ")
        assert out.endswith("; 1 quarantined\n")

    def test_cache_rejects_unknown_store(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["cache", "stats", "--store", "redis"]) == 2
        assert "unknown store backend" in capsys.readouterr().err

    def test_runs_show_renders_store_line(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main
        from repro.exec.journal import RunJournal

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        journal = RunJournal.create(experiments=["x"], jobs=1, use_cache=True)
        degraded = Scheduler(jobs=1, store=_DeadStore())
        degraded.run(_grid(1))
        journal.record_batch(
            degraded.last_outcomes, degraded.last_report, label="x"
        )
        journal.close("completed")
        assert main(["runs", "show", journal.run_id]) == 0
        out = capsys.readouterr().out
        assert "store: degraded=" in out
