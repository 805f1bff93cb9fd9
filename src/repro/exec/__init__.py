"""Parallel simulation scheduling with a content-addressed result store.

The evaluation is an embarrassingly parallel grid of independent,
deterministic simulations.  This package gives that shape first-class
treatment:

* :class:`~repro.exec.job.SimJob` — a frozen, hashable spec of one
  simulation with a stable content hash (:meth:`~repro.exec.job.SimJob.key`).
* :mod:`~repro.exec.stores` — the local filesystem result store:
  results are persisted by content hash so repeated runs are
  incremental across invocations, every read is invariant-checked with
  bad entries quarantined, and writes are atomic and fsync-durable.
  Point it elsewhere with ``REPRO_STORE`` or ``run --store``
  (``fs``, ``fs://`` or ``fs://PATH``).
* :class:`~repro.exec.scheduler.Scheduler` — dedups a batch, serves
  cache hits, fans misses across a process pool with retry, backoff, a
  progress hook, and graceful SIGINT/SIGTERM draining; a store that
  fails mid-run degrades to compute-without-cache instead of aborting
  the batch.  Inside :func:`~repro.exec.scheduler.pool_scope` (one
  ``run``) every batch shares one pool.
* :mod:`~repro.exec.journal` — an append-only JSONL manifest per run,
  enabling ``run --resume`` and ``runs list/show``.
* :mod:`~repro.exec.validate` — the engine invariants every result must
  satisfy before it is served or persisted.
* :mod:`~repro.exec.faults` — deterministic fault injection (crashes,
  hangs, flakes, store corruption) for chaos testing.
* :mod:`~repro.exec.context` — process-wide defaults
  (``run --jobs N --no-cache``, ``REPRO_JOBS``) and :func:`run_jobs`,
  the entry point the experiment drivers use.

See ``docs/execution.md`` for the full model.
"""

from repro.common.errors import RunInterrupted, ValidationError
from repro.exec.context import (
    ExecConfig,
    configure,
    current,
    get_scheduler,
    reset,
    reset_totals,
    resolve_store,
    run_jobs,
    set_journal,
    totals,
)
from repro.exec.faults import (
    FAULTS_ENV_VAR,
    FaultPlan,
    FaultyExecute,
    FaultyStore,
    InjectedFault,
)
from repro.exec.job import ENGINE_VERSION, SimJob, execute_job
from repro.exec.journal import RunJournal, RunSummary, find_run, list_runs
from repro.exec.scheduler import BatchReport, Scheduler, pool_scope
from repro.exec.stores import (
    FileResultStore,
    STORE_BACKEND_ENV_VAR,
    STORE_ENV_VAR,
    StoreError,
    StoreStats,
    make_store,
)
from repro.exec.validate import check_result, validate_result

__all__ = [
    "BatchReport",
    "ENGINE_VERSION",
    "ExecConfig",
    "FAULTS_ENV_VAR",
    "FaultPlan",
    "FaultyExecute",
    "FaultyStore",
    "FileResultStore",
    "InjectedFault",
    "RunInterrupted",
    "RunJournal",
    "RunSummary",
    "STORE_BACKEND_ENV_VAR",
    "STORE_ENV_VAR",
    "Scheduler",
    "SimJob",
    "StoreError",
    "StoreStats",
    "ValidationError",
    "make_store",
    "check_result",
    "configure",
    "current",
    "execute_job",
    "find_run",
    "get_scheduler",
    "list_runs",
    "pool_scope",
    "reset",
    "reset_totals",
    "resolve_store",
    "run_jobs",
    "set_journal",
    "totals",
    "validate_result",
]
