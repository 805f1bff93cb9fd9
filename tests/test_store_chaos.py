"""Store-level chaos: degraded mode, single-flight, fault injection.

The invariant under test everywhere here: **a sick result store never
changes simulated numbers and never aborts a batch**.  A store that
crashes on put, serves corrupted bytes, turns read-only, or disappears
entirely mid-run degrades the scheduler to compute-without-cache; the
degradation is counted and surfaced (report, trace, journal), and the
results are identical to a healthy run's.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.common.errors import StoreError
from repro.exec import Scheduler, SimJob, execute_job
from repro.exec.faults import FaultPlan, FaultyStore
from repro.exec.stores import (
    BACKENDS,
    FileResultStore,
    NetResultStore,
    StoreServer,
)

ACCESSES = 3_000


def _grid(count: int = 4):
    return [
        SimJob.single("hmmer_like", "lru", ACCESSES, seed=seed)
        for seed in range(count)
    ]


def _healthy_results(batch):
    return [execute_job(job) for job in batch]


@pytest.fixture(params=sorted(BACKENDS))
def store_factory(request, tmp_path):
    """Factory for fresh store handles over one shared medium, per backend.

    Chaos tests need several independent handles on the same store (a
    warmer, the store under test, a rerun).  ``fs`` hands out stores
    over one tmpdir; ``net`` hands out TCP clients of one live
    fs-backed :class:`StoreServer`.  The factory's ``backend`` attribute
    names the flavor.
    """
    backend = request.param
    base = tmp_path / "store"
    if backend == "net":
        server = StoreServer(FileResultStore(base), port=0)
        server.start()
        host, port = server.address
        handles = []

        def make_net():
            client = NetResultStore(f"{host}:{port}")
            handles.append(client)
            return client

        make_net.backend = backend
        yield make_net
        for client in handles:
            client.close()
        server.close()
        return

    def make_local():
        return BACKENDS[backend](base)

    make_local.backend = backend
    yield make_local


class _DeadStore:
    """A store whose medium is entirely unusable (every op raises)."""

    backend = "dead"

    def get(self, job):
        raise StoreError("medium gone")

    def put(self, job, result):
        raise StoreError("medium gone")

    def acquire_lease(self, key, ttl=30.0):
        raise StoreError("medium gone")

    def release_lease(self, lease):
        raise StoreError("medium gone")


class _DyingStore:
    """Delegates to a real store until ``budget`` ops, then goes dark.

    Models a store yanked mid-run — NFS mount dropped, disk full, server
    gone — after some operations already succeeded.
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
    """Reads fine; every write (put/lease) fails like a read-only mount."""

    def __init__(self, store) -> None:
        self._store = store

    def __getattr__(self, name):
        return getattr(self._store, name)

    def put(self, job, result):
        raise StoreError("read-only file system")

    def acquire_lease(self, key, ttl=30.0):
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
        assert report.degraded > 0  # the failed puts/leases, counted
        healthy = _healthy_results(batch)
        assert [r.to_dict() for r in results] == [r.to_dict() for r in healthy]

    def test_degradation_is_invisible_in_healthy_runs(self, tmp_path):
        scheduler = Scheduler(jobs=1, store=FileResultStore(tmp_path / "s"))
        scheduler.run(_grid(2))
        report = scheduler.last_report
        line = report.describe()
        for marker in ("degraded", "lease", "takeover"):
            assert marker not in line
        assert report.store_fields() == {}

    def test_degradation_is_visible_in_report_and_journal_fields(self):
        scheduler = Scheduler(jobs=1, store=_DeadStore())
        scheduler.run(_grid(2))
        report = scheduler.last_report
        assert "store fallbacks (degraded)" in report.describe()
        fields = report.store_fields()
        assert fields["degraded"] == report.degraded > 0
        assert "lease_contentions" not in fields  # zero stays absent

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

    def test_orphaned_leases_surface_and_get_swept(
        self, store_factory, tmp_path
    ):
        batch = _grid(2)
        plan = FaultPlan(store_lease_orphan=1.0, scratch=str(tmp_path / "m"))
        store = FaultyStore(store_factory(), plan)
        scheduler = Scheduler(jobs=1, store=store, lease_ttl=0.1)
        results = scheduler.run(batch)
        assert all(r is not None for r in results)
        # Releases were swallowed: the leases are orphaned on disk.
        assert len(store.active_leases()) == len(batch)
        time.sleep(0.25)  # heartbeats go stale
        census = store.active_leases()
        assert all(is_stale for _k, _o, is_stale in census)
        store.prune(keep=100)  # maintenance sweeps the orphans
        assert store.active_leases() == []

    def test_dotted_kinds_parse_from_spec(self):
        plan = FaultPlan.parse(
            "store.put.crash=0.5,store.get.corrupt,store.lease.orphan=0.25"
        )
        assert plan.store_put_crash == 0.5
        assert plan.store_get_corrupt == 1.0
        assert plan.store_lease_orphan == 0.25
        assert plan.net_server_crash == 0.0
        assert plan.active()


class TestSingleFlight:
    def test_second_scheduler_is_fully_cache_served(self, store_factory):
        batch = _grid()
        first = Scheduler(jobs=1, store=store_factory())
        first.run(batch)
        assert first.last_report.completed == len(batch)
        second = Scheduler(jobs=1, store=store_factory())
        second.run(batch)
        assert second.last_report.cached == len(batch)
        assert second.last_report.completed == 0

    def test_waiter_is_served_by_the_winners_put(self, store_factory):
        """A loser of the lease race settles from the winner's put."""
        store = store_factory()
        job = _grid(1)[0]
        winner_lease = store.acquire_lease(job.key(), ttl=30.0, owner="winner:1")
        assert winner_lease is not None

        scheduler = Scheduler(
            jobs=1,
            store=store_factory(),
            backoff_base=0.02,
        )
        done = {}

        def _run():
            done["results"] = scheduler.run([job])

        thread = threading.Thread(target=_run)
        thread.start()
        time.sleep(0.2)  # the scheduler is now polling as a waiter
        store.put(job, execute_job(job))  # the "winner" publishes
        store.release_lease(winner_lease)
        thread.join(timeout=30)
        assert not thread.is_alive()
        report = scheduler.last_report
        assert report.cached == 1
        assert report.completed == 0
        assert report.lease_contentions == 1
        assert done["results"][0] == execute_job(job)

    def test_waiter_takes_over_a_crashed_winner(self, store_factory):
        """A waiter computes itself once the holder's lease goes stale."""
        store = store_factory()
        job = _grid(1)[0]
        assert (
            store.acquire_lease(job.key(), ttl=0.3, owner="crashed:1")
            is not None
        )

        scheduler = Scheduler(
            jobs=1,
            store=store_factory(),
            backoff_base=0.02,
        )
        results = scheduler.run([job])
        report = scheduler.last_report
        assert report.completed == 1
        assert report.lease_contentions == 1  # first saw the live holder
        assert report.stale_takeovers == 1  # then displaced it
        assert results[0] == execute_job(job)

    def test_singleflight_off_ignores_foreign_leases(self, tmp_path):
        store = FileResultStore(tmp_path / "store")
        job = _grid(1)[0]
        assert store.acquire_lease(job.key(), ttl=30.0) is not None
        scheduler = Scheduler(
            jobs=1,
            store=FileResultStore(tmp_path / "store"),
            singleflight=False,
        )
        scheduler.run([job])
        report = scheduler.last_report
        assert report.completed == 1
        assert report.lease_contentions == 0


class TestRobustnessCLI:
    def test_cache_stats_health_line_is_byte_stable(self, tmp_path, monkeypatch):
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
        assert (
            "robustness [fs]: lease_contentions=0 "
            "leases_active=0 leases_stale=0 reconnects=0 "
            "retried_requests=0 stale_takeovers=0" in lines[0]
        )

    def test_cache_stats_counts_leases(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        store = FileResultStore(tmp_path / "cache")
        store.acquire_lease("a" * 64, ttl=30.0)
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "leases_active=1" in out
        assert "1 active lease(s) (0 stale)" in out

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
