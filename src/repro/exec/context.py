"""Process-wide execution defaults and the grid entry point.

The experiment drivers are plain functions — threading a worker count
and a cache flag through every one of them would bloat each signature
for a setting that is global by nature (one CLI invocation, one worker
budget).  Instead this module holds a single :class:`ExecConfig` the CLI
(``run --jobs N --no-cache``) and tests configure, and :func:`run_jobs`
— the one call every grid goes through.

Defaults come from the environment so non-CLI entry points (pytest, the
examples, notebooks) inherit them too:

* ``REPRO_JOBS`` — default worker count (``1`` = serial).
* ``REPRO_CACHE_DIR`` — result-store location (see
  :mod:`repro.exec.stores`).
* ``REPRO_STORE`` — store spec (``fs``, ``fs://`` or ``fs://PATH``),
  for a store kept apart from ``REPRO_CACHE_DIR``.

Run-wide totals are accumulated across batches so the CLI can report
completed/cached/failed counts per experiment.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.common.errors import ExecError, RunInterrupted
from repro.exec.faults import FaultPlan, FaultyExecute, FaultyStore
from repro.exec.job import SimJob, execute_job
from repro.exec.journal import RunJournal
from repro.exec.scheduler import BatchReport, ProgressHook, Scheduler
from repro.exec.stores import FileResultStore, make_store
from repro.sim.engine import SimResult

#: Environment variable giving the default worker count.
JOBS_ENV_VAR = "REPRO_JOBS"


def _default_jobs() -> int:
    raw = os.environ.get(JOBS_ENV_VAR)
    if raw is None:
        return 1
    try:
        jobs = int(raw)
    except ValueError:
        raise ExecError(f"{JOBS_ENV_VAR} must be an integer, got {raw!r}") from None
    if jobs <= 0:
        raise ExecError(f"{JOBS_ENV_VAR} must be positive, got {jobs}")
    return jobs


@dataclass
class ExecConfig:
    """Process-wide scheduler defaults."""

    jobs: int = 1
    use_cache: bool = True
    progress: Optional[ProgressHook] = None
    #: When set, every executed job runs under cProfile and dumps its
    #: stats here (``run --profile``); empty/None disables profiling.
    profile_dir: Optional[str] = None
    #: Store spec (``fs``, ``fs://`` or ``fs://PATH``); ``None`` defers
    #: to ``$REPRO_STORE``, defaulting to ``fs``.
    store: Optional[str] = None


_config: Optional[ExecConfig] = None
_totals = BatchReport()
_journal: Optional[RunJournal] = None


def current() -> ExecConfig:
    """The active config (built from the environment on first use)."""
    global _config
    if _config is None:
        _config = ExecConfig(jobs=_default_jobs())
    return _config


def configure(
    jobs: Optional[int] = None,
    use_cache: Optional[bool] = None,
    progress: Optional[ProgressHook] = None,
    profile_dir: Optional[str] = None,
    store: Optional[str] = None,
) -> ExecConfig:
    """Override execution defaults; ``None`` leaves a field untouched.

    ``profile_dir`` and ``store`` accept the empty string to switch back
    to their defaults (``None`` means "leave as is", like every other
    field).
    """
    config = current()
    if jobs is not None:
        if jobs <= 0:
            raise ExecError(f"jobs must be positive, got {jobs}")
        config.jobs = int(jobs)
    if use_cache is not None:
        config.use_cache = bool(use_cache)
    if progress is not None:
        config.progress = progress
    if profile_dir is not None:
        config.profile_dir = profile_dir or None
    if store is not None:
        config.store = store or None
    return config


def reset() -> None:
    """Drop overrides; the next use re-reads the environment."""
    global _config, _journal
    _config = None
    _journal = None
    reset_totals()


def set_journal(journal: Optional[RunJournal]) -> None:
    """Attach (or detach, with ``None``) the active run journal.

    While attached, every batch resolved by :func:`run_jobs` appends a
    ``batch`` record — job keys, outcomes, report — to the journal.
    """
    global _journal
    _journal = journal


def active_journal() -> Optional[RunJournal]:
    """The run journal currently receiving batch records, if any."""
    return _journal


def resolve_store() -> Optional[FileResultStore]:
    """The result store per current config (``None`` when caching is off).

    Built fresh each call so ``REPRO_CACHE_DIR``/``REPRO_STORE`` changes
    (e.g. a test pointing the store at a tmpdir) take effect immediately.
    The spec comes from :attr:`ExecConfig.store` when set, otherwise
    the environment (see :func:`repro.exec.stores.make_store`).
    """
    config = current()
    if not config.use_cache:
        return None
    return make_store(config.store)


def get_scheduler(progress: Optional[ProgressHook] = None) -> Scheduler:
    """A scheduler honouring the current process-wide config.

    When ``REPRO_FAULTS`` is set (see :mod:`repro.exec.faults`), the job
    runner and store are wrapped with deterministic fault injectors —
    the chaos-testing entry point for full CLI runs.
    """
    config = current()
    store = resolve_store()
    execute = execute_job
    plan = FaultPlan.from_env()
    if plan is not None:
        execute = FaultyExecute(plan)
        if store is not None:
            store = FaultyStore(store, plan)
    if config.profile_dir:
        from repro.obs.profile import ProfiledExecute

        execute = ProfiledExecute(execute, config.profile_dir)
    return Scheduler(
        jobs=config.jobs,
        store=store,
        progress=progress if progress is not None else config.progress,
        execute=execute,
    )


def run_jobs(
    batch: Sequence[SimJob], label: Optional[str] = None
) -> List[SimResult]:
    """Resolve a batch of jobs under the process-wide defaults.

    This is the call every experiment grid funnels through: cache-first,
    parallel on miss, results in submission order.  Batch outcomes are
    folded into the run-wide totals for CLI reporting and, when a run
    journal is attached, appended to the manifest (including the partial
    outcomes of an interrupted batch, which is what makes ``--resume``
    work).
    """
    scheduler = get_scheduler()
    try:
        results = scheduler.run(batch)
    except RunInterrupted as exc:
        if exc.report is not None:
            _totals.merge(exc.report)
        if _journal is not None:
            _journal.record_batch(
                exc.outcomes, exc.report, label=label, status="interrupted"
            )
        raise
    if scheduler.last_report is not None:
        _totals.merge(scheduler.last_report)
    if _journal is not None:
        _journal.record_batch(
            scheduler.last_outcomes, scheduler.last_report, label=label
        )
    registry = metrics_registry()
    if registry is not None:
        from repro.metrics.basic import observe_outcomes, observe_results

        observe_results(registry, results)
        observe_outcomes(registry, scheduler.last_outcomes)
    return results


def metrics_registry():
    """The active :class:`~repro.obs.metrics.MetricsRegistry`, if any.

    Thin indirection over :func:`repro.obs.metrics.active_registry` so
    this module's callers need no direct obs import.
    """
    from repro.obs.metrics import active_registry

    return active_registry()


def totals() -> BatchReport:
    """Run-wide outcome totals accumulated since the last reset."""
    snapshot = BatchReport()
    snapshot.merge(_totals)
    return snapshot


def reset_totals() -> None:
    """Zero the run-wide totals (the CLI calls this per experiment)."""
    global _totals
    _totals = BatchReport()
