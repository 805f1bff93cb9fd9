"""Multiprocess stress tests for the result store and single-flight.

True cross-process concurrency (no mocks): several OS processes hammer
one store with writes, validated reads, and maintenance at once, on
every backend — for ``net``, the forked workers are genuine TCP
clients of one live :class:`StoreServer` in the parent process.  The
invariants:

* no lost entries — every written key is readable and valid at the end;
* no torn reads — a concurrent reader sees a valid entry or a miss,
  never garbage (quarantine stays empty);
* no orphaned leases once every process exits cleanly;
* **single-flight** — N schedulers racing over the same cold job set
  compute each job exactly once, total, across all processes.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time

import pytest

from repro.exec import Scheduler, SimJob, execute_job
from repro.exec.stores import BACKENDS, FileResultStore, StoreServer

ACCESSES = 2_000
SEEDS = range(6)

_mp = multiprocessing.get_context("fork")
pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="stress tests need the fork start method",
)


@pytest.fixture(params=sorted(BACKENDS))
def stress_target(request, tmp_path):
    """``(backend, target)`` for each backend, forked-worker ready.

    ``fs`` gets a pre-created tmpdir root.  ``net`` gets one live
    fs-backed :class:`StoreServer` in the parent process; workers
    receive its ``host:port`` address and contend over real TCP.
    """
    backend = request.param
    base = tmp_path / "store"
    if backend == "net":
        server = StoreServer(FileResultStore(base), port=0)
        server.start()
        host, port = server.address
        yield backend, f"{host}:{port}"
        server.close()
        return
    # Pre-create the store root before forking, so workers never race
    # the one-time initialization.
    BACKENDS[backend](base).stats()
    yield backend, base


def _jobs():
    return [
        SimJob.single("hmmer_like", "lru", ACCESSES, seed=seed)
        for seed in SEEDS
    ]


# ----------------------------------------------------------------------
# Worker bodies (run in forked children)
# ----------------------------------------------------------------------


def _writer(backend, base, barrier):
    store = BACKENDS[backend](base)
    barrier.wait()
    for job in _jobs():
        store.put(job, execute_job(job))


def _reader(backend, base, barrier, rounds=40):
    store = BACKENDS[backend](base)
    jobs = _jobs()
    barrier.wait()
    for _round in range(rounds):
        for job in jobs:
            result = store.get(job)  # valid or None, never torn
            if result is not None:
                assert result.cores, "served a result with no cores"


def _pruner(backend, base, barrier, rounds=15):
    store = BACKENDS[backend](base)
    barrier.wait()
    for _round in range(rounds):
        store.prune(keep=len(list(SEEDS)))
        time.sleep(0.01)


class _CountingExecute:
    """``execute_job`` that leaves one marker file per real computation.

    The sleep widens the race window so contending schedulers genuinely
    overlap; markers are ``O_EXCL``-unique per invocation, so counting
    them counts computations across every process.
    """

    def __init__(self, marker_dir) -> None:
        self.marker_dir = str(marker_dir)
        self._seq = 0

    def __call__(self, job):
        self._seq += 1
        marker = os.path.join(
            self.marker_dir, f"{job.key()}.{os.getpid()}.{self._seq}"
        )
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        os.close(fd)
        time.sleep(0.05)
        return execute_job(job)


def _singleflight_scheduler(backend, base, marker_dir, report_dir, barrier):
    store = BACKENDS[backend](base)
    scheduler = Scheduler(
        jobs=1,
        store=store,
        execute=_CountingExecute(marker_dir),
        backoff_base=0.02,
        lease_ttl=10.0,
    )
    barrier.wait()
    results = scheduler.run(_jobs())
    assert all(result is not None for result in results)
    report = scheduler.last_report
    with open(
        os.path.join(report_dir, f"{os.getpid()}.json"), "w", encoding="utf-8"
    ) as handle:
        json.dump(
            {
                "completed": report.completed,
                "cached": report.cached,
                "failed": report.failed,
                "lease_contentions": report.lease_contentions,
            },
            handle,
        )


def _run_all(processes, timeout=120):
    for process in processes:
        process.start()
    for process in processes:
        process.join(timeout)
    alive = [p for p in processes if p.is_alive()]
    for process in alive:
        process.terminate()
    assert not alive, "stress worker(s) hung"
    assert all(p.exitcode == 0 for p in processes), (
        f"worker exit codes: {[p.exitcode for p in processes]}"
    )


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------


def test_concurrent_writers_readers_pruners(stress_target):
    backend, base = stress_target
    barrier = _mp.Barrier(5)
    processes = [
        _mp.Process(target=_writer, args=(backend, base, barrier)),
        _mp.Process(target=_writer, args=(backend, base, barrier)),
        _mp.Process(target=_reader, args=(backend, base, barrier)),
        _mp.Process(target=_reader, args=(backend, base, barrier)),
        _mp.Process(target=_pruner, args=(backend, base, barrier)),
    ]
    _run_all(processes)

    store = BACKENDS[backend](base)
    # No lost entries: every key both writers raced over is present and
    # round-trips validation.
    for job in _jobs():
        result = store.get(job)
        assert result is not None, f"lost entry for seed {job.seed}"
        assert result == execute_job(job)
    # No torn reads ever surfaced: nothing was quarantined.
    assert store.stats().quarantined == 0
    # No leases linger after clean exits.
    assert store.active_leases() == []


def test_singleflight_computes_each_job_exactly_once(stress_target, tmp_path):
    backend, base = stress_target
    marker_dir = tmp_path / "markers"
    report_dir = tmp_path / "reports"
    marker_dir.mkdir()
    report_dir.mkdir()

    contenders = 4
    barrier = _mp.Barrier(contenders)
    processes = [
        _mp.Process(
            target=_singleflight_scheduler,
            args=(backend, base, marker_dir, report_dir, barrier),
        )
        for _ in range(contenders)
    ]
    _run_all(processes)

    jobs = _jobs()
    markers = list(marker_dir.iterdir())
    assert len(markers) == len(jobs), (
        f"{len(markers)} computations for {len(jobs)} unique jobs — "
        "single-flight must compute each job exactly once across processes"
    )
    reports = [
        json.loads(path.read_text(encoding="utf-8"))
        for path in report_dir.iterdir()
    ]
    assert len(reports) == contenders
    for report in reports:
        assert report["failed"] == 0
        assert report["completed"] + report["cached"] == len(jobs)
    total_completed = sum(report["completed"] for report in reports)
    assert total_completed == len(jobs)
    # The contention the losers experienced is what the counters surface.
    assert sum(report["lease_contentions"] for report in reports) > 0

    # Nothing left behind: every lease was released.
    store = BACKENDS[backend](base)
    assert store.active_leases() == []
    assert store.stats().entries == len(jobs)
