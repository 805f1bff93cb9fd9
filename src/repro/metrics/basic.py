"""Single-stream cache metrics and the run-level collection path.

The pure derivation functions (:func:`mpki`, :func:`hit_rate`,
:func:`miss_reduction`) operate on raw counts and stay dependency-free.
The collection path — how a run's results become run-level aggregates —
goes through the typed instruments of
:class:`repro.obs.metrics.MetricsRegistry` instead of ad-hoc dicts:
:func:`observe_results` and :func:`observe_outcomes` are called by
:func:`repro.exec.context.run_jobs` for every resolved batch, and the
registry is exported per run as ``metrics.json``.

Everything recorded here is deterministic: simulated quantities (IPC,
MPKI, miss counts) and job outcome counts, never wall-clock values —
timings belong to the tracer (see ``docs/observability.md``).
"""

from __future__ import annotations


def mpki(misses: int, instructions: int) -> float:
    """Misses per thousand instructions."""
    if instructions <= 0:
        raise ValueError(f"instructions must be positive, got {instructions}")
    if misses < 0:
        raise ValueError(f"misses must be >= 0, got {misses}")
    return 1000.0 * misses / instructions


def hit_rate(hits: int, accesses: int) -> float:
    """Hits per access; 0.0 when there were no accesses."""
    if hits < 0 or accesses < 0:
        raise ValueError(f"counts must be >= 0, got hits={hits}, accesses={accesses}")
    if hits > accesses:
        raise ValueError(f"hits ({hits}) exceed accesses ({accesses})")
    return hits / accesses if accesses else 0.0


def miss_reduction(baseline_misses: int, new_misses: int) -> float:
    """Fraction of baseline misses removed (0.25 = 25% fewer misses)."""
    if baseline_misses < 0 or new_misses < 0:
        raise ValueError("miss counts must be >= 0")
    if baseline_misses == 0:
        return 0.0
    return 1.0 - new_misses / baseline_misses


def observe_results(registry, results) -> None:
    """Fold a batch of :class:`~repro.sim.engine.SimResult` into metrics.

    Records per-policy job counters, LLC miss totals, and fixed-bucket
    histograms of per-core IPC / MPKI / LLC hit rate.  Occurrence
    weighted (a deduplicated job counts once per submission) and purely
    a function of the results, so cached and computed batches record
    identically.  ``None`` slots (failed jobs under ``strict=False``)
    and baseline probe results, which carry no core counters, are
    skipped.
    """
    from repro.sim.engine import ProbeResult

    for result in results:
        if result is None or isinstance(result, ProbeResult):
            continue
        registry.counter("sim.jobs", policy=result.policy).inc()
        registry.counter(
            "sim.llc_misses", policy=result.policy
        ).inc(result.total_llc_misses)
        for core in result.cores:
            registry.counter("sim.instructions").inc(core.instructions)
            registry.histogram(
                "sim.core_ipc", "ipc", policy=result.policy
            ).observe(core.ipc)
            registry.histogram(
                "sim.core_mpki", "mpki", policy=result.policy
            ).observe(core.mpki)
            registry.histogram(
                "sim.core_llc_hit_rate", "ratio", policy=result.policy
            ).observe(core.llc_hit_rate)


def observe_outcomes(registry, outcomes) -> None:
    """Fold a batch's per-job outcomes into execution counters.

    ``outcomes`` is :attr:`repro.exec.scheduler.Scheduler.last_outcomes`:
    per unique job, its status, attempt count and occurrence count.
    Counts depend on cache state (a warm store turns ``completed`` into
    ``cached``), which is why they live under the ``exec.`` namespace,
    apart from the cache-invariant ``sim.`` metrics.
    """
    for outcome in outcomes.values():
        registry.counter(
            "exec.jobs", status=str(outcome.get("status"))
        ).inc(int(outcome.get("occurrences", 1)))
        attempts = int(outcome.get("attempts", 0))
        if attempts:
            registry.counter("exec.failed_attempts").inc(attempts)
