"""The layer tracer on a one-job batch: counts, restored bindings, equal results."""

from __future__ import annotations

import pytest

from e2ebench.layers import ROOT_SPAN, SELF_TIME_METRIC, LayerTracer, layer_metrics, tail

ACCESSES = 3000


def _bindings():
    """Every binding the tracer replaces, as (owner, attribute) -> object."""
    import repro.exec.context as context
    import repro.exec.job as job
    import repro.exec.scheduler as scheduler
    import repro.exec.stores.base as base
    import repro.exec.stores.fs as fs
    import repro.sim.policies as policies
    import repro.sim.runner as runner
    import repro.sim.vector as vector
    import repro.workloads.synthetic as synthetic
    from repro.sim.engine import MulticoreEngine

    owners = {
        "synthetic.generate_trace": (synthetic, "generate_trace"),
        "runner.generate_trace": (runner, "generate_trace"),
        "policies.make_llc": (policies, "make_llc"),
        "runner.make_llc": (runner, "make_llc"),
        "job.execute_job": (job, "execute_job"),
        "context.execute_job": (context, "execute_job"),
        "scheduler.validate_result": (scheduler, "validate_result"),
        "fs.encode_entry": (fs, "encode_entry"),
        "fs.decode_entry": (fs, "decode_entry"),
        "base.decode_entry": (base, "decode_entry"),
        "vector.lru_batch": (vector, "lru_batch"),
        "context.make_store": (context, "make_store"),
        "MulticoreEngine.run": (MulticoreEngine, "run"),
        "VectorEngine.run": (vector.VectorEngine, "run"),
        "Scheduler.run": (scheduler.Scheduler, "run"),
    }
    return {label: vars(owner)[attr] for label, (owner, attr) in owners.items()}


def _run(job, tracer=None):
    from repro.exec.context import run_jobs

    if tracer is None:
        return run_jobs([job])[0]
    with tracer.installed():
        return tracer.call(ROOT_SPAN, run_jobs, None, ([job],), {})[0]


def _metrics(tracer):
    return layer_metrics(tracer.records(), dict(tracer.counters))


def test_one_job_batch_counts_and_restores(store_dir, tmp_path, monkeypatch):
    from repro.exec import SimJob

    job = SimJob.single("mcf_like", "nucache", ACCESSES, seed=3)
    before = _bindings()
    tracer = LayerTracer()
    traced = _run(job, tracer)
    assert _bindings() == before

    metrics = _metrics(tracer)
    assert {k: metrics[k] for k in (
        "workloads.traces", "llc.builds", "sim.engine_runs", "sim.accesses", "sim.runs_scalar",
        "exec.batches", "exec.jobs_submitted", "exec.jobs_unique", "exec.jobs_computed",
        "exec.jobs_cached", "exec.jobs_failed", "store.gets", "store.puts",
        "store.get_hit_ratio", "sim.lru_batch_calls",
    )} == {
        "workloads.traces": 1, "llc.builds": 1, "sim.engine_runs": 1,
        "sim.accesses": ACCESSES, "sim.runs_scalar": 1, "exec.batches": 1,
        "exec.jobs_submitted": 1, "exec.jobs_unique": 1, "exec.jobs_computed": 1,
        "exec.jobs_cached": 0, "exec.jobs_failed": 0, "store.gets": 1, "store.puts": 1,
        "store.get_hit_ratio": 0.0, "sim.lru_batch_calls": 0,
    }
    assert metrics["llc.object_accesses"] > 0 and metrics["nucache.epochs"] >= 0
    names = [span["name"] for span in tracer.records()]
    assert names.count("exec.validate") == 1 and names.count("store.encode") == 1

    # The time metrics partition the root span exactly.
    parts = sum(metrics[name] for name in set(SELF_TIME_METRIC.values()))
    assert parts == pytest.approx(metrics["trace.wall_s"], rel=1e-9, abs=1e-12)

    # A second traced run is served from the store; its read is decoded and validated.
    again = LayerTracer()
    _run(job, again)
    cached = _metrics(again)
    assert (cached["store.get_hit_ratio"], cached["exec.jobs_cached"], cached["sim.engine_runs"]) \
        == (1.0, 1, 0)
    assert [span["name"] for span in again.records()].count("store.decode") == 1

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "fresh"))
    assert _run(job).to_dict() == traced.to_dict()


def test_vector_engine_path_and_nested_fallback(store_dir, monkeypatch):
    from repro.exec import SimJob

    monkeypatch.setenv("REPRO_ENGINE", "vector")
    tracer = LayerTracer()
    _run(SimJob.single("gcc_like", "lru", ACCESSES, seed=3), tracer)
    metrics = _metrics(tracer)
    assert (metrics["sim.runs_vector"], metrics["sim.engine_runs"]) == (1, 1)
    assert metrics["sim.lru_batch_calls"] >= 1

    # Prefetchers make VectorEngine.run fall back into MulticoreEngine.run:
    # the nested engine span counts once, as a scalar run.
    tracer = LayerTracer()
    _run(SimJob.single("gcc_like", "lru", ACCESSES, seed=3, prefetcher="stride"), tracer)
    metrics = _metrics(tracer)
    assert (metrics["sim.engine_runs"], metrics["sim.runs_scalar"]) == (1, 1)


def test_spans_nest_and_unknown_spans_are_refused():
    tracer = LayerTracer()
    tracer.call(ROOT_SPAN, tracer.call, None, ("llc.build", lambda: None, None, (), {}), {})
    records = tracer.records()
    assert [(r["name"], r["parent"]) for r in records] == [(ROOT_SPAN, None), ("llc.build", 0)]
    with pytest.raises(ValueError, match="without a metric"):
        layer_metrics(records + [{"name": "mystery", "start": 0, "end": 1, "parent": None,
                                  "attrs": {}}], {})


def test_tail_needs_ten_samples_beyond_it():
    assert tail([1.0, 2.0, 3.0]) == 2.0
    values = [float(i) for i in range(100)]
    assert tail(values) == 89.0
