"""The worker pool's lifetime: one pool per ``run``, none left behind.

``nucache-repro run`` forks its ``--jobs`` workers once, at its first
pooled round, and every later round borrows them
(:func:`repro.exec.scheduler.pool_scope`).  A traced run writes one
``proc-<pid>.jsonl`` per process that ran a job, so counting the files
counts the workers a run forked.
"""

from __future__ import annotations

import multiprocessing
import os
import re
import signal
import time

import pytest

from repro.cli import main
from repro.common.errors import ExecError
from repro.exec import (
    FaultPlan,
    FaultyExecute,
    Scheduler,
    SimJob,
    execute_job,
    pool_scope,
)
from repro.exec import context as exec_context
from repro.exec import scheduler as scheduler_module
from repro.exec.faults import FAULTS_ENV_VAR, FAULTS_SEED_ENV_VAR
from repro.exec.stores import STORE_ENV_VAR
from repro.obs.timings import trace_dir_for

#: At this scale fig3 and fig4 compute 32 and 48 jobs, one pooled round
#: each when nothing fails.
SCALE = "0.05"

#: This rate and seed crash the worker running fig3's 23rd job (of 32)
#: and no job of fig4's.
CRASH_SPEC, CRASH_SEED = "crash=0.05", "29"

#: Where the interrupting runner leaves its fire-once marker (set per
#: test; forked workers inherit it).
_SIGINT_MARKER = ""


def _interrupting_execute(job: SimJob):
    """Run ``job``, then SIGINT the parent once, from the first worker done.

    The pooled counterpart of the runner in
    ``tests/test_journal.py::TestCliRuns::test_interrupted_cli_run_resumes_byte_identical``:
    a worker's parent is the process that runs the CLI.
    """
    result = execute_job(job)
    try:
        os.close(os.open(_SIGINT_MARKER, os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        return result
    os.kill(os.getppid(), signal.SIGINT)
    return result


def _failing_execute(job: SimJob):
    raise RuntimeError(f"injected failure for {job.describe()}")


@pytest.fixture(autouse=True)
def _cold_store(tmp_path, monkeypatch):
    """An empty store, runs and traces directory per test, at a short scale."""
    monkeypatch.setenv(STORE_ENV_VAR, str(tmp_path / "base"))
    monkeypatch.setenv("REPRO_SCALE", SCALE)
    exec_context.reset()
    yield
    exec_context.reset()


def _run_id(stderr: str) -> str:
    return next(
        line.split("id=")[1].split()[0]
        for line in stderr.splitlines()
        if line.startswith("[run] id=")
    )


def _trace_files(stderr: str) -> list:
    return sorted(trace_dir_for(_run_id(stderr)).glob("proc-*.jsonl"))


class TestOnePoolPerRun:
    def test_a_run_forks_its_workers_once(self, capsys):
        # fig3's and fig4's rounds share one pool: the CLI's trace file
        # and two workers' (a pool per round would leave five).
        assert main(["run", "fig3", "fig4", "--jobs", "2", "--trace"]) == 0
        captured = capsys.readouterr()
        assert "[exec] fig3: 32 jobs: 32 computed" in captured.err
        assert "[exec] fig4: 54 jobs: 48 computed" in captured.err
        assert len(_trace_files(captured.err)) == 3

    def test_a_broken_pool_is_replaced_once(self, capsys, monkeypatch):
        assert main(["run", "fig3", "fig4", "--jobs", "2"]) == 0
        clean = capsys.readouterr().out

        monkeypatch.setenv(STORE_ENV_VAR, str(os.environ[STORE_ENV_VAR]) + "-chaos")
        monkeypatch.setenv(FAULTS_ENV_VAR, CRASH_SPEC)
        monkeypatch.setenv(FAULTS_SEED_ENV_VAR, CRASH_SEED)
        exec_context.reset()
        assert main(["run", "fig3", "fig4", "--jobs", "2", "--trace"]) == 0
        chaotic = capsys.readouterr()
        assert chaotic.out == clean
        assert re.search(
            r"^\[exec\] fig3: 32 jobs: 32 computed, 0 cached, 0 failed "
            r"\([1-9][0-9]* retried\)", chaotic.err, re.MULTILINE,
        )
        assert "[exec] fig4: 54 jobs: 48 computed, 6 cached, 0 failed (0 retried)" in (
            chaotic.err
        )
        # The CLI, the two workers the crash broke, and the two that
        # replaced them for fig3's retry round and all of fig4.
        assert len(_trace_files(chaotic.err)) == 1 + 2 + 2


class TestNoWorkerOutlivesRun:
    def test_after_a_completed_run(self, capsys):
        assert main(["run", "fig3", "--jobs", "2"]) == 0
        assert "32 computed" in capsys.readouterr().err
        assert multiprocessing.active_children() == []

    def test_after_a_failed_experiment(self, capsys, monkeypatch):
        monkeypatch.setattr(exec_context, "execute_job", _failing_execute)
        with pytest.raises(ExecError, match="injected failure"):
            main(["run", "fig3", "--jobs", "2"])
        assert "[run] id=" in capsys.readouterr().err
        assert multiprocessing.active_children() == []

    def test_after_an_interrupted_run(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setitem(globals(), "_SIGINT_MARKER", str(tmp_path / "sigint-sent"))
        monkeypatch.setattr(exec_context, "execute_job", _interrupting_execute)
        assert main(["run", "fig3", "fig4", "--jobs", "2"]) == 130
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "[run] interrupted during fig3" in captured.err
        assert multiprocessing.active_children() == []


def _batch(policy: str = "lru"):
    return [SimJob.single(name, policy, 4_000) for name in ("hmmer_like", "art_like")]


def test_a_worker_that_dies_between_rounds_is_replaced():
    with pool_scope():
        Scheduler(jobs=2).run(_batch())
        pool = scheduler_module._scope.pool
        victim = next(iter(pool._processes.values()))
        victim.kill()
        victim.join(timeout=10)
        deadline = time.monotonic() + 10
        while not pool._broken and time.monotonic() < deadline:
            time.sleep(0.01)
        assert pool._broken
        scheduler = Scheduler(jobs=2)
        results = scheduler.run(_batch("nucache"))
    assert scheduler.last_report.retried == 0
    assert [r.to_dict() for r in results] == [
        r.to_dict() for r in Scheduler(jobs=1).run(_batch("nucache"))
    ]
    assert multiprocessing.active_children() == []


def test_a_hung_job_is_stopped_at_its_timeout(tmp_path):
    # Both jobs hang for a minute on their first attempt; the timeout
    # must stop their workers then, not when the hang ends.
    plan = FaultPlan(
        hang=1.0, seed=0, hang_seconds=60.0, scratch=str(tmp_path / "markers")
    )
    scheduler = Scheduler(
        jobs=2, timeout=1.0, retries=1,
        execute=FaultyExecute(plan), backoff_base=0.001,
    )
    started = time.monotonic()
    scheduler.run(_batch())
    assert time.monotonic() - started < 30
    assert scheduler.last_report.failed == 0
    assert multiprocessing.active_children() == []


def test_a_scheduler_outside_a_run_joins_its_pool():
    batch = _batch()
    results = Scheduler(jobs=2).run(batch)
    assert [result.cores[0].workload for result in results] == [
        "hmmer_like", "art_like",
    ]
    assert multiprocessing.active_children() == []
