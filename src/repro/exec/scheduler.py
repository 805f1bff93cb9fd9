"""The batch scheduler: cache-first, parallel on miss, resilient to faults.

A :class:`Scheduler` takes a batch of :class:`~repro.exec.job.SimJob`
specs and returns their results in submission order.  The pipeline:

1. **Dedup** — identical jobs (same content key) are simulated once and
   fanned back out to every occurrence; experiment grids repeat alone
   runs heavily, so this alone saves real work.
2. **Cache lookup** — if a result store
   (:class:`~repro.exec.stores.fs.FileResultStore`) is attached,
   every unique job is first looked up by content hash (the store
   validates and quarantines bad entries on read).
3. **Execute** — misses run through a ``ProcessPoolExecutor`` when more
   than one worker is configured (and there is more than one miss),
   else inline.  Each miss gets ``1 + retries`` attempts; a worker
   crash (``BrokenProcessPool``) or per-job timeout tears the pool down,
   and surviving work is resubmitted to a fresh pool without being
   charged an attempt.  Retry rounds are separated by exponential
   backoff with deterministic jitter.  Every fresh result is checked
   against the engine invariants (:mod:`repro.exec.validate`) before it
   is accepted or persisted.
4. **Report** — an optional progress callback receives one event per
   resolved job plus a final ``batch`` event carrying the
   :class:`BatchReport`; per-job outcomes land in
   :attr:`Scheduler.last_outcomes` for the run journal.

SIGINT/SIGTERM during :meth:`Scheduler.run` are handled gracefully: the
scheduler stops dispatching, harvests whatever already finished (and
persists it to the store), then raises
:class:`~repro.common.errors.RunInterrupted` carrying the partial report
and outcomes — so an interrupted run leaves a resumable trail instead of
a stack trace.

Simulations are pure functions of their job spec, so a batch's results
are identical regardless of worker count, cache state, or injected
faults that retries absorb — ``tests/test_exec.py`` and
``tests/test_faults.py`` pin this down.  For the same reason schedulers
never coordinate with one another: two runs sharing a store may both
compute a job they both missed, and both puts publish the same result.
"""

from __future__ import annotations

import signal
import threading
import time
import traceback as traceback_module
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ExecError, RunInterrupted, StoreError
from repro.common.rng import backoff_delay
from repro.exec.job import JobResult, SimJob, execute_job, import_job_modules
from repro.exec.stores.fs import FileResultStore
from repro.exec.validate import validate_result
from repro.obs.trace import active_tracer

#: Signature of the progress hook: receives event dicts with at least an
#: ``"event"`` field (``cached`` / ``completed`` / ``failed`` / ``retry``
#: / ``interrupted`` / ``batch``).
ProgressHook = Callable[[Dict[str, object]], None]

#: How often the pool path polls a future, so interrupts and timeouts
#: are noticed promptly without busy-waiting.
_POLL_SECONDS = 0.1


@dataclass
class BatchReport:
    """Outcome counts for one scheduler batch (occurrence-weighted)."""

    total: int = 0
    completed: int = 0
    cached: int = 0
    failed: int = 0
    retried: int = 0
    interrupted: int = 0
    wall_time: float = 0.0
    #: Store operations that failed and fell back to compute-without-cache.
    degraded: int = 0

    @property
    def cache_fraction(self) -> float:
        """Fraction of the batch served from the result store."""
        if self.total == 0:
            return 0.0
        return self.cached / self.total

    def describe(self) -> str:
        """One-line human-readable summary."""
        line = (
            f"{self.total} jobs: {self.completed} computed, "
            f"{self.cached} cached, {self.failed} failed "
            f"({self.retried} retried)"
        )
        if self.interrupted:
            line += f", {self.interrupted} interrupted"
        if self.degraded:
            line += f", {self.degraded} store fallbacks (degraded)"
        return f"{line} in {self.wall_time:.2f}s"

    def store_fields(self) -> Dict[str, int]:
        """Nonzero robustness counters, for journal ``batch`` records.

        Empty for a healthy batch, so journals written before the
        pluggable-store work render identically.
        """
        return {"degraded": self.degraded} if self.degraded else {}

    def merge(self, other: "BatchReport") -> None:
        """Accumulate another report into this one (for run-wide totals)."""
        for spec in fields(self):
            total = getattr(self, spec.name) + getattr(other, spec.name)
            setattr(self, spec.name, total)


def _format_error(exc: BaseException) -> str:
    """Full traceback text of an exception, worker frames included.

    ``concurrent.futures`` re-raises worker exceptions in the parent
    with the worker-side traceback attached as the ``__cause__`` chain
    (``_RemoteTraceback``), and :func:`traceback.format_exception`
    renders that chain — so the string a pooled job records is the same
    one an inline job would have produced, which is what the journal and
    ``runs show`` need for postmortems.
    """
    return "".join(
        traceback_module.format_exception(type(exc), exc, exc.__traceback__)
    )


@dataclass
class _JobState:
    """Bookkeeping for one unique job within a batch."""

    job: SimJob
    indices: List[int] = field(default_factory=list)
    attempts: int = 0
    error: Optional[str] = None
    timings: List[float] = field(default_factory=list)
    #: Full traceback of the last raised exception (None for failures
    #: that raise nothing, e.g. timeouts and result-validation refusals).
    traceback: Optional[str] = None
    #: Violated invariants / state snapshot carried by an
    #: :class:`~repro.common.errors.InvariantViolation`, when that is
    #: what the job died of.
    violations: Optional[List[str]] = None
    snapshot: Optional[Dict[str, object]] = None


class _Interrupted(Exception):
    """Internal: the interrupt flag was observed while awaiting a future."""


class Scheduler:
    """Fans a batch of simulation jobs across worker processes.

    Args:
        jobs: worker process count; ``<= 1`` runs every job inline in
            this process (the strictly serial path).
        store: result store for cache-first execution, or ``None`` to
            always recompute (``--no-cache``).
        timeout: per-job wall-clock limit in seconds (pool mode only —
            an inline job cannot be preempted).
        retries: extra attempts a job gets after a crash, timeout or
            error before counting as failed.
        progress: optional event hook (see :data:`ProgressHook`).
        strict: raise :class:`~repro.common.errors.ExecError` if any job
            is still failed after retries; when ``False``, failed slots
            come back as ``None`` and only the report records them.
        execute: the job runner (overridable for tests and fault
            injection; must be picklable when running with a process
            pool).
        backoff_base: first retry-round delay in seconds (0 disables
            backoff entirely).
        backoff_cap: upper bound on any single retry-round delay.
    """

    def __init__(
        self,
        jobs: int = 1,
        store: Optional[FileResultStore] = None,
        timeout: Optional[float] = None,
        retries: int = 1,
        progress: Optional[ProgressHook] = None,
        strict: bool = True,
        execute: Callable[[SimJob], JobResult] = execute_job,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
    ) -> None:
        if retries < 0:
            raise ExecError(f"retries must be >= 0, got {retries}")
        if backoff_base < 0 or backoff_cap < 0:
            raise ExecError("backoff_base and backoff_cap must be >= 0")
        self.jobs = max(1, int(jobs))
        self.store = store
        self.timeout = timeout
        self.retries = retries
        self.progress = progress
        self.strict = strict
        self.execute = execute
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.last_report: Optional[BatchReport] = None
        #: Per-unique-job outcome of the last run, keyed by content hash:
        #: ``{"status", "attempts", "error", "label", "occurrences"}``.
        self.last_outcomes: Dict[str, Dict[str, object]] = {}
        self._interrupted = False
        self._tracer = None

    # ------------------------------------------------------------------

    def _emit(
        self,
        event: str,
        state: _JobState,
        done: int,
        total: int,
        **extra: object,
    ) -> None:
        if self._tracer is not None:
            self._tracer.event(
                "exec.job",
                status=event,
                key=state.job.key()[:12],
                label=state.job.describe(),
                attempts=state.attempts,
                done=done,
                total=total,
                **{
                    name: value
                    for name, value in extra.items()
                    if isinstance(value, (bool, int, float, str)) or value is None
                },
            )
        if self.progress is None:
            return
        record: Dict[str, object] = {
            "event": event,
            "job": state.job,
            "key": state.job.key(),
            "label": state.job.describe(),
            "error": state.error,
            "done": done,
            "total": total,
        }
        record.update(extra)
        self.progress(record)

    def _record_outcome(self, state: _JobState, status: str) -> None:
        self.last_outcomes[state.job.key()] = {
            "status": status,
            "attempts": state.attempts,
            "error": state.error,
            "label": state.job.describe(),
            "occurrences": len(state.indices),
            # Per-attempt settle times (seconds); empty for cache hits.
            # Serial runs time the attempt itself; pooled runs time
            # submission-to-settle (queue wait included) — for pure
            # execution durations see the trace's exec.job spans.
            # `runs show <id> --timings` renders these from the journal.
            "timings": [round(elapsed, 6) for elapsed in state.timings],
        }
        # Failure forensics — only for jobs that actually ended failed
        # (a retried-then-recovered job's old traceback is noise), and
        # only the keys with content, so healthy journals stay compact.
        if status != "failed":
            return
        outcome = self.last_outcomes[state.job.key()]
        if state.traceback:
            outcome["traceback"] = state.traceback
        if state.violations:
            outcome["violations"] = list(state.violations)
        if state.snapshot:
            outcome["snapshot"] = state.snapshot

    # ------------------------------------------------------------------
    # Guarded store access
    #
    # Every store interaction is wrapped: a store that turns read-only
    # or becomes unreachable mid-run must never abort the batch.  The
    # failure is counted (``report.degraded``), surfaced in the trace,
    # and the scheduler computes without the cache.
    # ------------------------------------------------------------------

    def _note_degraded(self, report: BatchReport, op: str, exc: Exception) -> None:
        """Count a failed store operation and surface it in the trace."""
        report.degraded += 1
        if self._tracer is not None:
            self._tracer.event(
                "exec.store_degraded", op=op, error=repr(exc)[:200]
            )

    def _store_get(self, job: SimJob, report: BatchReport) -> Optional[JobResult]:
        """Cache lookup that degrades to a miss on store failure."""
        if self.store is None:
            return None
        try:
            return self.store.get(job)
        except (StoreError, OSError) as exc:
            self._note_degraded(report, "get", exc)
            return None

    def _store_put(
        self, state: _JobState, result: JobResult, report: BatchReport
    ) -> None:
        """Persist a fresh result; a failed put degrades, never aborts."""
        if self.store is None:
            return
        try:
            self.store.put(state.job, result)
        except (StoreError, OSError) as exc:
            self._note_degraded(report, "put", exc)

    # ------------------------------------------------------------------
    # Interrupt plumbing
    # ------------------------------------------------------------------

    def _install_signal_handlers(self) -> List[Tuple[int, object]]:
        """Trade SIGINT/SIGTERM for a drain flag while a batch runs.

        Only possible from the main thread; elsewhere (or where signals
        are unavailable) the batch simply runs uninterruptible, which is
        the pre-existing behavior.
        """
        if threading.current_thread() is not threading.main_thread():
            return []

        def _flag(_signum, _frame) -> None:
            self._interrupted = True

        installed: List[Tuple[int, object]] = []
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                installed.append((signum, signal.signal(signum, _flag)))
            except (ValueError, OSError):  # non-main interpreter quirks
                continue
        return installed

    @staticmethod
    def _restore_signal_handlers(installed: List[Tuple[int, object]]) -> None:
        for signum, previous in installed:
            try:
                signal.signal(signum, previous)
            except (ValueError, OSError, TypeError):
                continue

    def _await(self, future: "Future", timeout: Optional[float]):
        """Wait on a future in short polls so interrupts stay responsive.

        Raises :class:`_Interrupted` when the drain flag is set and
        :class:`FutureTimeout` when ``timeout`` elapses.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            if self._interrupted:
                raise _Interrupted()
            remaining = None if deadline is None else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                raise FutureTimeout()
            wait = _POLL_SECONDS if remaining is None else min(_POLL_SECONDS, remaining)
            try:
                return future.result(timeout=wait)
            except FutureTimeout:
                continue

    # ------------------------------------------------------------------

    def _backoff_delay(self, round_no: int, retry: Sequence[_JobState]) -> float:
        """Deterministic exponential backoff before retry round ``round_no``.

        The jitter stream is seeded from the retrying jobs' content keys
        (via :mod:`repro.common.rng`), so a given batch backs off
        identically on every run and machine.
        """
        label = "retry-backoff:%d:%s" % (
            round_no,
            ",".join(sorted(state.job.key() for state in retry)[:4]),
        )
        return backoff_delay(round_no, label, self.backoff_base, self.backoff_cap)

    def run(self, batch: Sequence[SimJob]) -> List[Optional[JobResult]]:
        """Resolve every job of ``batch``, in order.

        Returns one result per submitted job (duplicates share one
        simulation).  With ``strict=True`` (the default) a job
        that fails after retries raises; a SIGINT/SIGTERM mid-batch
        raises :class:`~repro.common.errors.RunInterrupted` after
        persisting everything that finished; otherwise failed slots are
        ``None`` and only the report records them.
        """
        started = time.monotonic()
        report = BatchReport(total=len(batch))
        results: List[Optional[JobResult]] = [None] * len(batch)
        self._interrupted = False
        self.last_outcomes = {}
        self._tracer = active_tracer()

        # Dedup by content key, preserving first-seen order.
        states: Dict[str, _JobState] = {}
        for index, job in enumerate(batch):
            state = states.setdefault(job.key(), _JobState(job=job))
            state.indices.append(index)
        unique = list(states.values())
        if self._tracer is not None:
            self._tracer.event(
                "exec.batch_start", total=len(batch), unique=len(unique)
            )

        def settle(state: _JobState, result: JobResult, cached: bool) -> None:
            for index in state.indices:
                results[index] = result
            if cached:
                report.cached += len(state.indices)
            else:
                report.completed += len(state.indices)
            done = report.cached + report.completed + report.failed
            self._record_outcome(state, "cached" if cached else "completed")
            self._emit("cached" if cached else "completed", state, done, report.total)

        failures: List[_JobState] = []

        def fail(state: _JobState) -> None:
            failures.append(state)
            report.failed += len(state.indices)
            done = report.cached + report.completed + report.failed
            self._record_outcome(state, "failed")
            self._emit("failed", state, done, report.total)

        installed = self._install_signal_handlers()
        try:
            # Cache-first pass (a degraded store reads as all-miss).
            pending: List[_JobState] = []
            for state in unique:
                if self._interrupted:
                    pending.append(state)
                    continue
                stored = self._store_get(state.job, report)
                if stored is not None:
                    settle(state, stored, cached=True)
                else:
                    pending.append(state)
            if self._tracer is not None:
                # Lifecycle "queued" marks go to the trace only; the
                # progress hook keeps its documented event set.
                for state in pending:
                    self._tracer.event(
                        "exec.job",
                        status="queued",
                        key=state.job.key()[:12],
                        label=state.job.describe(),
                    )

            # Execute the misses, retrying per round with backoff.
            round_no = 0
            while pending and not self._interrupted:
                round_no += 1
                use_pool = self.jobs > 1 and len(pending) > 1
                completed, retry, failed, interrupted = (
                    self._run_pool(pending) if use_pool
                    else self._run_inline(pending)
                )
                for state, result in completed:
                    self._store_put(state, result, report)
                    settle(state, result, cached=False)
                for state in failed:
                    fail(state)
                if interrupted:
                    # Interrupted and retry-routed jobs alike stay
                    # unresolved; the journal marks them for the resume.
                    break
                if retry:
                    delay = self._backoff_delay(round_no, retry)
                    for state in retry:
                        report.retried += 1
                        self._emit(
                            "retry",
                            state,
                            report.cached + report.completed + report.failed,
                            report.total,
                            attempt=state.attempts,
                            elapsed=state.timings[-1] if state.timings else None,
                            backoff=delay,
                        )
                    if delay > 0:
                        time.sleep(delay)
                pending = retry
        finally:
            self._restore_signal_handlers(installed)

        if self._interrupted:
            # Anything not yet settled or failed is left for the resume.
            resolved = set(self.last_outcomes)
            for state in unique:
                if state.job.key() not in resolved:
                    report.interrupted += len(state.indices)
                    self._record_outcome(state, "interrupted")
            report.wall_time = time.monotonic() - started
            self.last_report = report
            if self._tracer is not None:
                self._tracer.event(
                    "exec.batch_end", status="interrupted",
                    **asdict(report),
                )
            if self.progress is not None:
                self.progress({"event": "interrupted", "report": report})
            raise RunInterrupted(
                f"batch interrupted: {report.cached + report.completed} of "
                f"{report.total} jobs settled, {report.interrupted} left",
                report=report,
                outcomes=self.last_outcomes,
            )

        report.wall_time = time.monotonic() - started
        self.last_report = report
        if self._tracer is not None:
            self._tracer.event(
                "exec.batch_end", status="ok", **asdict(report)
            )
        if self.progress is not None:
            self.progress({"event": "batch", "report": report})
        if self.strict and report.failed:
            details = "; ".join(
                f"{state.job.describe()}: {state.error}" for state in failures[:5]
            )
            message = (
                f"{report.failed} of {report.total} jobs failed after "
                f"{self.retries} retries — {details}"
            )
            first_traceback = next(
                (state.traceback for state in failures if state.traceback), None
            )
            if first_traceback:
                message += "\nfirst failure traceback:\n" + first_traceback
            raise ExecError(message)
        return results

    # ------------------------------------------------------------------
    # Execution backends.  Both return (completed, retry, failed,
    # interrupted) where completed pairs each state with its result and
    # interrupted holds states abandoned by a SIGINT/SIGTERM drain.
    # ------------------------------------------------------------------

    def _charge(self, state: _JobState, error: str, elapsed: float):
        """Record a failed attempt; route the job to retry or failure."""
        state.attempts += 1
        state.error = error
        state.timings.append(elapsed)
        return state.attempts <= self.retries

    @staticmethod
    def _note_exception(state: _JobState, exc: BaseException) -> None:
        """Preserve an attempt's full traceback (and any invariant payload).

        Called for exceptions the job itself raised; timeout/crash paths
        have no traceback worth keeping.  An
        :class:`~repro.common.errors.InvariantViolation` additionally
        contributes its violation list and state snapshot, so the
        journal records *what* the cache looked like, not just that a
        check fired.
        """
        state.traceback = _format_error(exc)
        violations = getattr(exc, "violations", None)
        state.violations = list(violations) if violations else None
        snapshot = getattr(exc, "snapshot", None)
        state.snapshot = dict(snapshot) if snapshot else None

    def _accept(self, state: _JobState, result: JobResult) -> Optional[str]:
        """Invariant-check a fresh result; returns the violation, if any."""
        violations = validate_result(result, state.job)
        if violations:
            return "invalid result: " + "; ".join(violations[:3])
        return None

    def _run_inline(self, pending: List[_JobState]):
        completed, retry, failed, interrupted = [], [], [], []
        for position, state in enumerate(pending):
            if self._interrupted:
                interrupted.extend(pending[position:])
                break
            attempt_started = time.monotonic()
            try:
                result = self.execute(state.job)
            except Exception as exc:  # noqa: BLE001 — converted to job failure
                elapsed = time.monotonic() - attempt_started
                self._note_exception(state, exc)
                (retry if self._charge(state, repr(exc), elapsed) else failed).append(
                    state
                )
                continue
            elapsed = time.monotonic() - attempt_started
            violation = self._accept(state, result)
            if violation is None:
                state.timings.append(elapsed)
                completed.append((state, result))
            else:
                (retry if self._charge(state, violation, elapsed) else failed).append(
                    state
                )
        return completed, retry, failed, interrupted

    def _run_pool(self, pending: List[_JobState]):
        completed, retry, failed, interrupted = [], [], [], []
        workers = min(self.jobs, len(pending))
        # Forked workers inherit the parent's modules: import what a
        # job's run would otherwise import in every worker.
        import_job_modules()
        pool = ProcessPoolExecutor(max_workers=workers)
        round_started = time.monotonic()
        futures = [(state, pool.submit(self.execute, state.job)) for state in pending]
        pool_dead = False

        def harvest(state: _JobState, future: "Future", bucket: List[_JobState]) -> None:
            """Collect an already-finished future; requeue the rest."""
            try:
                result = future.result(timeout=0)
            except Exception:  # noqa: BLE001 — never ran, or died with the pool
                bucket.append(state)
                return
            violation = self._accept(state, result)
            if violation is None:
                state.timings.append(time.monotonic() - round_started)
                completed.append((state, result))
            else:
                elapsed = time.monotonic() - round_started
                (retry if self._charge(state, violation, elapsed) else failed).append(
                    state
                )

        try:
            for state, future in futures:
                if pool_dead:
                    # The pool died mid-batch.  Jobs that finished before
                    # the break still hold results; the rest are requeued
                    # without being charged an attempt (they never ran).
                    harvest(state, future, retry)
                    continue
                if self._interrupted:
                    harvest(state, future, interrupted)
                    continue
                elapsed = lambda: time.monotonic() - round_started  # noqa: E731
                try:
                    result = self._await(future, self.timeout)
                except _Interrupted:
                    harvest(state, future, interrupted)
                    continue
                except FutureTimeout:
                    pool_dead = True
                    self._terminate_workers(pool)
                    if self._charge(
                        state, f"timed out after {self.timeout}s", elapsed()
                    ):
                        retry.append(state)
                    else:
                        failed.append(state)
                    continue
                except BrokenProcessPool:
                    pool_dead = True
                    if self._charge(state, "worker process crashed", elapsed()):
                        retry.append(state)
                    else:
                        failed.append(state)
                    continue
                except Exception as exc:  # noqa: BLE001 — converted to job failure
                    self._note_exception(state, exc)
                    (
                        retry
                        if self._charge(state, repr(exc), elapsed())
                        else failed
                    ).append(state)
                    continue
                violation = self._accept(state, result)
                if violation is None:
                    state.timings.append(elapsed())
                    completed.append((state, result))
                elif self._charge(state, violation, elapsed()):
                    retry.append(state)
                else:
                    failed.append(state)
        finally:
            if pool_dead or interrupted:
                self._terminate_workers(pool)
            pool.shutdown(wait=not (pool_dead or interrupted), cancel_futures=True)
        return completed, retry, failed, interrupted

    @staticmethod
    def _terminate_workers(pool: ProcessPoolExecutor) -> None:
        """Best-effort kill of a pool whose work must not be awaited."""
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except Exception:  # noqa: BLE001 — already dying
                pass
