"""Multiprocess stress tests for the result store and concurrent schedulers.

True cross-process concurrency (no mocks): several OS processes hammer
one store directory with writes, validated reads, and maintenance at
once.  The invariants:

* no lost entries — every written key is readable and valid at the end;
* no torn reads — a concurrent reader sees a valid entry or a miss,
  never garbage (quarantine stays empty);
* **shared store** — N schedulers racing over the same cold job set each
  return the simulated results, and the store ends with one valid entry
  per job however many of them computed it.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time

import pytest

from repro.exec import Scheduler, SimJob, execute_job
from repro.exec.stores import FileResultStore

ACCESSES = 2_000
SEEDS = range(6)

_mp = multiprocessing.get_context("fork")
pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="stress tests need the fork start method",
)


@pytest.fixture
def base(tmp_path):
    """A store root created before any worker forks.

    Pre-creating it means workers never race the one-time
    initialization.
    """
    root = tmp_path / "store"
    FileResultStore(root).stats()
    return root


def _jobs():
    return [
        SimJob.single("hmmer_like", "lru", ACCESSES, seed=seed)
        for seed in SEEDS
    ]


# ----------------------------------------------------------------------
# Worker bodies (run in forked children)
# ----------------------------------------------------------------------


def _writer(base, barrier):
    store = FileResultStore(base)
    barrier.wait()
    for job in _jobs():
        store.put(job, execute_job(job))


def _reader(base, barrier, rounds=40):
    store = FileResultStore(base)
    jobs = _jobs()
    barrier.wait()
    for _round in range(rounds):
        for job in jobs:
            result = store.get(job)  # valid or None, never torn
            if result is not None:
                assert result.cores, "served a result with no cores"


def _same_key_writer(base, barrier, rounds=25):
    store = FileResultStore(base)
    job = _jobs()[0]
    result = execute_job(job)
    barrier.wait()
    for _round in range(rounds):
        store.put(job, result)


def _same_key_reader(base, barrier, rounds=200):
    store = FileResultStore(base)
    job = _jobs()[0]
    expected = execute_job(job)
    barrier.wait()
    for _round in range(rounds):
        result = store.get(job)  # the old entry, the new one, or a miss
        if result is not None:
            assert result == expected


def _pruner(base, barrier, rounds=15):
    store = FileResultStore(base)
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


def _sharing_scheduler(base, marker_dir, report_dir, barrier):
    store = FileResultStore(base)
    scheduler = Scheduler(
        jobs=1, store=store, execute=_CountingExecute(marker_dir)
    )
    barrier.wait()
    results = scheduler.run(_jobs())
    report = scheduler.last_report
    with open(
        os.path.join(report_dir, f"{os.getpid()}.json"), "w", encoding="utf-8"
    ) as handle:
        json.dump(
            {
                "completed": report.completed,
                "cached": report.cached,
                "failed": report.failed,
                "results": [result.to_dict() for result in results],
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


def test_concurrent_writers_readers_pruners(base):
    barrier = _mp.Barrier(5)
    processes = [
        _mp.Process(target=_writer, args=(base, barrier)),
        _mp.Process(target=_writer, args=(base, barrier)),
        _mp.Process(target=_reader, args=(base, barrier)),
        _mp.Process(target=_reader, args=(base, barrier)),
        _mp.Process(target=_pruner, args=(base, barrier)),
    ]
    _run_all(processes)

    store = FileResultStore(base)
    # No lost entries: every key both writers raced over is present and
    # round-trips validation.
    for job in _jobs():
        result = store.get(job)
        assert result is not None, f"lost entry for seed {job.seed}"
        assert result == execute_job(job)
    # No torn reads ever surfaced: nothing was quarantined.
    assert store.stats().quarantined == 0


def test_concurrent_puts_of_one_key_leave_one_valid_entry(base):
    """Writers of one key need no lock: every rename publishes a whole entry."""
    barrier = _mp.Barrier(4)
    processes = [
        _mp.Process(target=_same_key_writer, args=(base, barrier)),
        _mp.Process(target=_same_key_writer, args=(base, barrier)),
        _mp.Process(target=_same_key_writer, args=(base, barrier)),
        _mp.Process(target=_same_key_reader, args=(base, barrier)),
    ]
    _run_all(processes)

    store = FileResultStore(base)
    job = _jobs()[0]
    assert store.get(job) == execute_job(job)
    stats = store.stats()
    assert (stats.entries, stats.quarantined) == (1, 0)
    # Each writer's temp file is its own and is gone once it renamed.
    assert list(store.root.glob("*/.*.tmp")) == []


def test_concurrent_schedulers_share_one_store(base, tmp_path):
    """Schedulers racing over one cold store agree and leave one entry per job.

    They do not coordinate, so a job may be computed by every contender;
    each put publishes the same result, so the store still ends with one
    valid entry per job.
    """
    marker_dir = tmp_path / "markers"
    report_dir = tmp_path / "reports"
    marker_dir.mkdir()
    report_dir.mkdir()

    contenders = 4
    barrier = _mp.Barrier(contenders)
    processes = [
        _mp.Process(
            target=_sharing_scheduler,
            args=(base, marker_dir, report_dir, barrier),
        )
        for _ in range(contenders)
    ]
    _run_all(processes)

    jobs = _jobs()
    expected = json.loads(
        json.dumps([execute_job(job).to_dict() for job in jobs])
    )
    reports = [
        json.loads(path.read_text(encoding="utf-8"))
        for path in report_dir.iterdir()
    ]
    assert len(reports) == contenders
    for report in reports:
        assert report["failed"] == 0
        assert report["completed"] + report["cached"] == len(jobs)
        assert report["results"] == expected
    computations = len(list(marker_dir.iterdir()))
    assert len(jobs) <= computations <= contenders * len(jobs)
    assert sum(report["completed"] for report in reports) == computations

    store = FileResultStore(base)
    stats = store.stats()
    assert stats.entries == len(jobs)
    assert stats.quarantined == 0
    for job in jobs:
        assert store.get(job) == execute_job(job)
