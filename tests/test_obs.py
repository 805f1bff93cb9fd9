"""Tests for the observability layer: tracer, metrics, profiling, timings."""

from __future__ import annotations

import json
import os

import pytest

from repro.common.errors import ReproError
from repro.exec import context as exec_context
from repro.exec.stores import STORE_ENV_VAR
from repro.obs.metrics import (
    BUCKET_LAYOUTS,
    MetricsRegistry,
    active_registry,
    set_registry,
)
from repro.obs.trace import (
    TRACE_ENV_VAR,
    Tracer,
    active_tracer,
    reset_tracer,
    set_tracer,
)


@pytest.fixture(autouse=True)
def _isolated_obs(tmp_path, monkeypatch):
    """Each test gets its own store base and a clean tracer/registry."""
    monkeypatch.setenv(STORE_ENV_VAR, str(tmp_path / "base"))
    monkeypatch.delenv(TRACE_ENV_VAR, raising=False)
    reset_tracer()
    set_registry(None)
    exec_context.reset()
    yield
    reset_tracer()
    set_registry(None)
    exec_context.reset()


def _records(path):
    return [
        json.loads(line)
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------


class TestTracer:
    def test_span_nesting_records_parent_and_depth(self, tmp_path):
        tracer = Tracer(tmp_path / "t.jsonl")
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                tracer.event("tick", n=1)
        tracer.close()
        records = _records(tracer.path)
        begins = {r["name"]: r for r in records if r["type"] == "begin"}
        assert begins["outer"]["parent"] is None
        assert begins["outer"]["depth"] == 0
        assert begins["inner"]["parent"] == outer.span_id
        assert begins["inner"]["depth"] == 1
        (event,) = [r for r in records if r["type"] == "event"]
        assert event["span"] == inner.span_id
        ends = [r for r in records if r["type"] == "end"]
        # Inner closes before outer, neither aborted.
        assert [r["name"] for r in ends] == ["inner", "outer"]
        assert not any(r.get("aborted") for r in ends)
        assert all(r["dur"] >= 0 for r in ends)

    def test_ring_flushes_at_capacity(self, tmp_path):
        tracer = Tracer(tmp_path / "t.jsonl", ring_capacity=4)
        for n in range(3):
            tracer.counter("c", n)
        assert not tracer.path.exists()  # still buffered
        tracer.counter("c", 3)  # fourth record fills the ring
        assert len(_records(tracer.path)) == 4

    def test_top_level_span_end_flushes(self, tmp_path):
        tracer = Tracer(tmp_path / "t.jsonl")
        with tracer.span("run"):
            pass
        assert [r["type"] for r in _records(tracer.path)] == ["begin", "end"]

    def test_close_aborts_open_spans_and_flushes(self, tmp_path):
        # The flush-on-interrupt guarantee: a tracer closed with spans
        # still open (SIGINT, crash) writes aborted end records so the
        # partial trace still renders.
        tracer = Tracer(tmp_path / "t.jsonl")
        tracer.span("outer")
        tracer.span("inner")
        tracer.close()
        ends = [r for r in _records(tracer.path) if r["type"] == "end"]
        assert [r["name"] for r in ends] == ["inner", "outer"]  # LIFO
        assert all(r["aborted"] for r in ends)
        tracer.close()  # idempotent
        tracer.event("late")  # ignored after close
        assert len(_records(tracer.path)) == 4

    def test_context_manager_marks_exception_aborted(self, tmp_path):
        tracer = Tracer(tmp_path / "t.jsonl")
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        (end,) = [r for r in _records(tracer.path) if r["type"] == "end"]
        assert end["aborted"] is True

    def test_active_tracer_disabled_is_cached_none(self):
        assert active_tracer() is None
        assert active_tracer() is None  # cached path

    def test_active_tracer_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TRACE_ENV_VAR, str(tmp_path / "traces"))
        reset_tracer()
        tracer = active_tracer()
        assert tracer is not None
        assert tracer.path.name == f"proc-{os.getpid()}.jsonl"
        assert active_tracer() is tracer  # same object on every call
        reset_tracer()
        monkeypatch.delenv(TRACE_ENV_VAR)
        assert active_tracer() is None

    def test_set_tracer_overrides(self, tmp_path):
        tracer = Tracer(tmp_path / "t.jsonl")
        set_tracer(tracer)
        assert active_tracer() is tracer
        set_tracer(None)


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------


class TestMetrics:
    def test_counter_gauge_basics(self):
        registry = MetricsRegistry()
        registry.counter("jobs", policy="lru").inc()
        registry.counter("jobs", policy="lru").inc(2)
        registry.gauge("depth").set(3.5)
        payload = registry.to_dict()
        assert payload["counters"] == {"jobs{policy=lru}": 3}
        assert payload["gauges"] == {"depth": 3.5}
        with pytest.raises(ReproError, match="cannot decrease"):
            registry.counter("jobs", policy="lru").inc(-1)

    def test_histogram_bucketing_is_deterministic(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("rates", "ratio")
        # Bounds are inclusive upper edges: v <= bound lands in that
        # bucket; anything above the last bound is overflow.
        for value in (0.0, 0.1, 0.10001, 0.95, 1.0, 1.5):
            histogram.observe(value)
        assert len(histogram.counts) == len(BUCKET_LAYOUTS["ratio"]) + 1
        assert histogram.counts[0] == 2  # 0.0 and 0.1
        assert histogram.counts[1] == 1  # 0.10001
        assert histogram.counts[-2] == 2  # 0.95 and 1.0 in the <=1.0 bucket
        assert histogram.counts[-1] == 1  # 1.5 overflows
        assert histogram.count == 6
        assert histogram.sum == pytest.approx(3.65001)

    def test_histogram_unknown_layout_rejected(self):
        with pytest.raises(ReproError, match="unknown histogram layout"):
            MetricsRegistry().histogram("x", "nope")

    def test_series_kind_and_layout_conflicts_raise(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ReproError, match="already registered"):
            registry.gauge("x")
        registry.histogram("h", "ipc")
        with pytest.raises(ReproError, match="layout"):
            registry.histogram("h", "mpki")

    def test_same_labels_any_order_same_series(self):
        registry = MetricsRegistry()
        registry.counter("x", a="1", b="2").inc()
        registry.counter("x", b="2", a="1").inc()
        assert registry.to_dict()["counters"] == {"x{a=1,b=2}": 2}

    def test_export_is_byte_stable(self, tmp_path):
        def build():
            registry = MetricsRegistry()
            registry.counter("jobs", policy="nucache").inc(7)
            registry.histogram("ipc", "ipc").observe(0.42)
            registry.gauge("g").set(1.0)
            return registry

        first = build().export(tmp_path / "a.json")
        second = build().export(tmp_path / "b.json")
        assert first.read_bytes() == second.read_bytes()

    def test_active_registry_roundtrip(self):
        assert active_registry() is None
        registry = MetricsRegistry()
        set_registry(registry)
        assert active_registry() is registry


# ----------------------------------------------------------------------
# Instrumentation: engine spans, scheduler lifecycle, collection path
# ----------------------------------------------------------------------


class TestInstrumentation:
    def test_engine_emits_phases_and_epochs(self, tmp_path):
        from repro.sim.runner import run_single

        tracer = Tracer(tmp_path / "t.jsonl")
        set_tracer(tracer)
        try:
            run_single("art_like", "nucache", 6_000)
        finally:
            set_tracer(None)
            tracer.close()
        records = _records(tracer.path)
        names = {(r["type"], r["name"]) for r in records}
        assert ("begin", "sim.run") in names
        (end,) = [r for r in records if r["type"] == "end"]
        # A single-core NUcache run takes the scalar loop: one stage.
        assert (end["name"], end["path"]) == ("sim.run", "scalar")
        phases = [
            r["phase"] for r in records
            if r["type"] == "event" and r["name"] == "sim.phase"
        ]
        assert phases == ["loop"]
        # One final sample: the value is the accesses simulated, and the
        # snapshot fields (incl. the NUcache-specific ones) ride along.
        (counter,) = [r for r in records if r["type"] == "counter"]
        assert counter["name"] == "llc.counters"
        assert counter["value"] == 6_000
        assert "deli_hits" in counter and "misses" in counter
        epochs = [r["epoch"] for r in records if r["name"] == "nucache.epoch"]
        assert epochs == list(range(1, counter["epochs"] + 1)) and epochs

    def test_traced_run_results_identical(self, tmp_path):
        from repro.sim.runner import run_single

        plain = run_single("art_like", "lru", 6_000).to_dict()
        tracer = Tracer(tmp_path / "t.jsonl")
        set_tracer(tracer)
        try:
            traced = run_single("art_like", "lru", 6_000).to_dict()
        finally:
            set_tracer(None)
            tracer.close()
        assert traced == plain

    def test_scheduler_emits_job_lifecycle(self, tmp_path, monkeypatch):
        from repro.exec import SimJob

        monkeypatch.setenv(TRACE_ENV_VAR, str(tmp_path / "traces"))
        reset_tracer()
        jobs = [
            SimJob.single("art_like", policy, 4_000)
            for policy in ("lru", "nucache")
        ]
        exec_context.run_jobs(jobs, label="unit")
        exec_context.run_jobs(jobs, label="unit")  # cache hits this time
        tracer = active_tracer()
        tracer.flush()
        records = _records(tracer.path)
        job_events = [
            r for r in records
            if r["type"] == "event" and r["name"] == "exec.job"
        ]
        statuses = [r["status"] for r in job_events]
        assert statuses.count("queued") == 2
        assert statuses.count("completed") == 2
        assert statuses.count("cached") == 2
        batch_ends = [
            r for r in records
            if r["type"] == "event" and r["name"] == "exec.batch_end"
        ]
        assert [r["status"] for r in batch_ends] == ["ok", "ok"]
        assert all(r["total"] == 2 for r in batch_ends)
        # The executed batch also carries per-job spans.
        spans = [r for r in records if r["type"] == "end" and r["name"] == "exec.job"]
        assert len(spans) == 2

    def test_run_jobs_feeds_registry(self):
        from repro.exec import SimJob

        registry = MetricsRegistry()
        set_registry(registry)
        jobs = [
            SimJob.single("art_like", policy, 4_000)
            for policy in ("lru", "nucache")
        ]
        exec_context.run_jobs(jobs)
        payload = registry.to_dict()
        assert payload["counters"]["sim.jobs{policy=lru}"] == 1
        assert payload["counters"]["sim.jobs{policy=nucache}"] == 1
        assert payload["counters"]["exec.jobs{status=completed}"] == 2
        assert payload["histograms"]["sim.core_ipc{policy=lru}"]["count"] == 1


# ----------------------------------------------------------------------
# Profiling
# ----------------------------------------------------------------------


class TestProfile:
    @pytest.mark.parametrize("engine", ["scalar", "vector"])
    def test_profiled_execute_dumps_and_merges(self, tmp_path, monkeypatch, engine):
        from repro.exec import SimJob, execute_job
        from repro.obs.profile import (
            ProfiledExecute,
            hot_functions,
            merge_profiles,
            render_hot_table,
        )

        monkeypatch.setenv("REPRO_ENGINE", engine)
        wrapper = ProfiledExecute(execute_job, tmp_path / "profiles")
        job = SimJob.single("art_like", "nucache", 4_000)
        plain = execute_job(job).to_dict()
        profiled = wrapper(job).to_dict()
        assert profiled == plain  # profiling never touches the result
        wrapper(job)
        dumps = list((tmp_path / "profiles").glob("*.pstats"))
        assert len(dumps) == 2
        stats = merge_profiles(tmp_path / "profiles")
        assert stats is not None
        rows = hot_functions(stats, top=5)
        # Whichever engine runs the job, its run() leads the profile.
        module = {"scalar": "sim/engine.py", "vector": "sim/vector.py"}[engine]
        assert rows and any(row[0].startswith(module) for row in rows)
        table = render_hot_table(stats, top=5, title="unit")
        assert table.startswith("unit")

    def test_merge_profiles_empty_and_torn(self, tmp_path):
        from repro.obs.profile import merge_profiles

        assert merge_profiles(tmp_path / "missing") is None
        (tmp_path / "torn.pstats").write_bytes(b"\x00garbage")
        assert merge_profiles(tmp_path) is None


# ----------------------------------------------------------------------
# Timings rendering
# ----------------------------------------------------------------------


class TestTimings:
    def test_render_timings_merges_journal_and_trace(self):
        from repro.exec.journal import RunSummary
        from repro.obs.timings import render_timings

        summary = RunSummary(run_id="r1", path=None, status="completed")
        records = [
            {"record": "experiment_start", "experiment": "fig5"},
            {
                "record": "batch",
                "label": "grid",
                "report": {"wall_time": 2.5, "completed": 2, "cached": 1},
                "outcomes": {
                    "k1" * 32: {
                        "status": "completed",
                        "label": "slow job",
                        "timings": [2.0],
                    },
                    "k2" * 32: {"status": "cached", "timings": []},
                },
            },
            {"record": "experiment_end", "experiment": "fig5",
             "status": "ok", "elapsed": 3.0},
        ]
        trace_records = [
            {"type": "event", "name": "sim.phase", "phase": "warmup", "dur": 1.0},
            {"type": "event", "name": "sim.phase", "phase": "measure", "dur": 3.0},
            {"type": "event", "name": "nucache.epoch"},
            {"type": "end", "name": "exec.job", "dur": 4.2},
        ]
        text = render_timings(summary, records, trace_records)
        assert "fig5 batch 1 [grid]: 2.50s" in text
        assert "2.00s  slow job" in text
        assert "fig5: ok in 3.00s" in text
        assert "warmup" in text and "(25%)" in text
        assert "measure" in text and "(75%)" in text
        assert "1 NUcache selection rotations" in text
        assert "job wall" in text

    def test_render_timings_counts_engine_paths(self):
        from repro.exec.journal import RunSummary
        from repro.obs.timings import render_timings

        summary = RunSummary(run_id="r1", path=None, status="completed")
        trace_records = [
            {"type": "end", "name": "sim.run", "path": path}
            for path in ("vector", "hybrid:llc_policy:nucache", "vector")
        ] + [{"type": "end", "name": "sim.run", "aborted": True}]
        lines = render_timings(summary, [], trace_records).splitlines()
        start = lines.index("engine paths (from 4 sim.run records)")
        rows = [line.split() for line in lines[start + 1:]]
        assert rows == [
            ["vector", "2", "runs"],
            ["?", "1", "runs"],
            ["hybrid:llc_policy:nucache", "1", "runs"],
        ]

    def test_render_timings_reports_the_replayed_accesses(self):
        from repro.exec.journal import RunSummary
        from repro.obs.timings import render_timings

        summary = RunSummary(run_id="r1", path=None, status="completed")
        trace_records = [
            {"type": "event", "name": "sim.phase", "phase": "replay",
             "dur": 0.5, "accesses": 100_000},
            {"type": "event", "name": "sim.phase", "phase": "replay",
             "dur": 0.25, "accesses": 50_000},
            {"type": "event", "name": "sim.phase", "phase": "private", "dur": 0.1},
        ]
        lines = render_timings(summary, [], trace_records).splitlines()
        assert "  replayed   150,000 LLC accesses, 5,000 ns per access" in lines
        untimed = render_timings(summary, [], trace_records[2:])
        assert "replayed" not in untimed

    def test_render_timings_without_trace(self):
        from repro.exec.journal import RunSummary
        from repro.obs.timings import render_timings

        summary = RunSummary(run_id="r1", path=None, status="completed")
        text = render_timings(summary, [], [])
        assert "no trace records" in text

    def test_load_trace_records_tolerates_torn_lines(self, tmp_path):
        from repro.obs.timings import load_trace_records

        trace_dir = tmp_path / "t"
        trace_dir.mkdir()
        (trace_dir / "proc-1.jsonl").write_text(
            '{"type": "event", "name": "sim.phase"}\n{"type": "ev',
            encoding="utf-8",
        )
        records = load_trace_records(trace_dir)
        assert len(records) == 1
        assert load_trace_records(tmp_path / "missing") == []


# ----------------------------------------------------------------------
# CLI integration: --trace / --profile / --timings, golden metrics.json
# ----------------------------------------------------------------------


def _run_id_from(stderr: str) -> str:
    return next(
        line.split("id=")[1].split()[0]
        for line in stderr.splitlines()
        if "[run] id=" in line
    )


class TestCliObs:
    def test_traced_run_stdout_identical_and_golden_metrics(
        self, capsys, monkeypatch, tmp_path
    ):
        from repro.cli import main
        from repro.obs.timings import trace_dir_for

        monkeypatch.setenv("REPRO_SCALE", "0.02")
        # --no-cache both times: with a warm store the second run's
        # exec.jobs counters would say "cached" instead of "completed",
        # and the goal here is byte-equality of metrics.json.
        assert main(["run", "fig5", "--no-cache"]) == 0
        plain = capsys.readouterr()

        assert main(["run", "fig5", "--no-cache", "--trace"]) == 0
        first = capsys.readouterr()
        assert first.out == plain.out  # tracing changes no simulated number
        first_metrics = trace_dir_for(_run_id_from(first.err)) / "metrics.json"

        assert main(["run", "fig5", "--no-cache", "--trace"]) == 0
        second = capsys.readouterr()
        assert second.out == plain.out
        second_metrics = trace_dir_for(_run_id_from(second.err)) / "metrics.json"

        # Golden byte-stability: two runs of the same code, same bytes.
        assert first_metrics.read_bytes() == second_metrics.read_bytes()
        payload = json.loads(first_metrics.read_text(encoding="utf-8"))
        assert payload["counters"]["sim.jobs{policy=nucache}"] > 0

        # The trace directory holds at least the main process's file.
        trace_dir = trace_dir_for(_run_id_from(first.err))
        assert list(trace_dir.glob("proc-*.jsonl"))

        # Tracing is fully torn down after the run.
        assert TRACE_ENV_VAR not in os.environ
        assert active_tracer() is None
        assert active_registry() is None

    def test_runs_show_timings(self, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("REPRO_SCALE", "0.02")
        assert main(["run", "fig5", "--no-cache", "--trace"]) == 0
        run_id = _run_id_from(capsys.readouterr().err)
        assert main(["runs", "show", run_id, "--timings"]) == 0
        shown = capsys.readouterr().out
        assert f"timings for {run_id}" in shown
        assert "scheduler wall" in shown
        assert "simulation phases" in shown
        # fig5's default runs all take the vector engine: LRU batches,
        # NUcache mixes replay on the hybrid path.
        for stage in ("private", "solve", "replay", "collect"):
            assert stage in shown
        assert "engine paths" in shown
        assert "hybrid:llc_policy:nucache" in shown

    def test_profile_run_prints_hot_table(self, capsys, monkeypatch):
        from repro.cli import main
        from repro.obs.timings import trace_dir_for

        monkeypatch.setenv("REPRO_SCALE", "0.02")
        assert main(["run", "fig5", "--no-cache", "--profile"]) == 0
        captured = capsys.readouterr()
        assert "[profile] fig5" in captured.err
        assert "cum s" in captured.err
        run_id = _run_id_from(captured.err)
        dumps = list(
            (trace_dir_for(run_id) / "profiles" / "fig5").glob("*.pstats")
        )
        assert dumps
        # Profiling is torn down after the run.
        assert exec_context.current().profile_dir is None
