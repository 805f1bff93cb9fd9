"""Parallel simulation scheduling with a content-addressed result store.

The evaluation is an embarrassingly parallel grid of independent,
deterministic simulations.  This package gives that shape first-class
treatment:

* :class:`~repro.exec.job.SimJob` — a frozen, hashable spec of one
  simulation with a stable content hash (:meth:`~repro.exec.job.SimJob.key`).
* :mod:`~repro.exec.stores` — result-store backends (a local
  filesystem store and a networked client for one served over TCP)
  behind one abstract interface: results are persisted by content hash
  so repeated runs are incremental across invocations, every read is
  invariant-checked with bad entries quarantined, writes are atomic and
  fsync-durable, and cross-process compute leases arbitrate
  single-flight execution.  Select with ``REPRO_STORE`` or
  ``run --store`` (``fs``, ``fs://PATH`` or ``net://HOST:PORT``).
* :class:`~repro.exec.scheduler.Scheduler` — dedups a batch, serves
  cache hits, fans misses across a process pool with retry, backoff, a
  progress hook, and graceful SIGINT/SIGTERM draining; concurrent
  schedulers sharing a store compute each missed job exactly once, and
  a store that fails mid-run degrades to compute-without-cache instead
  of aborting the batch.
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
    active_journal,
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
from repro.exec.scheduler import BatchReport, Scheduler
from repro.exec.stores import (
    AbstractResultStore,
    FileResultStore,
    Lease,
    STORE_BACKEND_ENV_VAR,
    STORE_ENV_VAR,
    StoreError,
    StoreStats,
    from_url,
    make_store,
)
from repro.exec.validate import check_result, validate_result

__all__ = [
    "AbstractResultStore",
    "BatchReport",
    "ENGINE_VERSION",
    "ExecConfig",
    "FAULTS_ENV_VAR",
    "FaultPlan",
    "FaultyExecute",
    "FaultyStore",
    "FileResultStore",
    "InjectedFault",
    "Lease",
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
    "from_url",
    "make_store",
    "active_journal",
    "check_result",
    "configure",
    "current",
    "execute_job",
    "find_run",
    "get_scheduler",
    "list_runs",
    "reset",
    "reset_totals",
    "resolve_store",
    "run_jobs",
    "set_journal",
    "totals",
    "validate_result",
]
