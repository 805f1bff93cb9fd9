"""Per-layer tracing of one in-process workload run.

:class:`LayerTracer` wraps the public entry points of each layer from
the outside — nothing in ``src/`` knows it exists — and records one
span (name, start, end, parent, attributes) per call:

=================  =============================================================
span               wrapped entry point
=================  =============================================================
``workloads.trace``  ``repro.workloads.synthetic.generate_trace``
``llc.build``        ``repro.sim.policies.make_llc`` (every LLC organization)
``sim.engine``       ``MulticoreEngine.run`` and ``VectorEngine.run``
``exec.scheduler``   ``Scheduler.run``
``exec.runner``      ``repro.exec.job.execute_job``
``exec.validate``    ``repro.exec.validate.validate_result``
``store.get/put``    a proxy around ``make_store`` in ``repro.exec.context``
``store.encode``     ``repro.exec.stores.base.encode_entry`` / ``decode_entry``
=================  =============================================================

Module-level functions are rebound in every loaded ``repro`` module
that imported them by name; methods are wrapped on the class.  A span
nested directly in a span of the same name (``VectorEngine.run``
falling back to ``MulticoreEngine.run``) counts once.  Nothing per
access is wrapped: timing every ``llc.access`` would multiply the run
time.  ``lru_batch`` calls are counted, not timed, so the engine's self
time keeps its kernels.

:func:`layer_metrics` turns the spans into the per-layer metrics of
``BENCHMARK.json``.  Every span's self time lands in exactly one time
metric, and the root span's self time is ``trace.residual_s``, so the
time metrics add up to ``trace.wall_s``.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

ROOT_SPAN = "bench.run"

#: Which time metric each span's self time belongs to.
SELF_TIME_METRIC = {
    ROOT_SPAN: "trace.residual_s",
    "workloads.trace": "workloads.trace_s",
    "llc.build": "llc.build_s",
    "sim.engine": "sim.engine_self_s",
    "exec.scheduler": "exec.self_s",
    "exec.runner": "exec.self_s",
    "exec.validate": "exec.validate_s",
    "store.get": "store.io_s",
    "store.put": "store.io_s",
    "store.encode": "store.codec_s",
    "store.decode": "store.codec_s",
}


class Interaction(NamedTuple):
    """Which end-to-end metrics a group of per-layer metrics should move."""

    layer: str
    metrics: Tuple[str, ...]
    moves: Tuple[str, ...]
    on: Tuple[str, ...]
    #: What the traced breakdown (``--trace 1``, ``--jobs 1``) shows.
    evidence: str


LLC_LAYERS = "repro.cache, repro.nucache, repro.partition"

#: The layer-to-end-to-end interaction table.  ``list`` prints its
#: mapping, and the README carries it as :func:`interaction_table`
#: renders it.
INTERACTIONS: Tuple[Interaction, ...] = (
    Interaction("repro.workloads", ("workloads.traces", "workloads.trace_s"),
                ("reproduce_s",), ("all-cold", "all-warm"),
                "1,110 traces in 1.1 s of the 68.8 s traced all-cold; "
                "0.28 of 8.2 s on all-warm"),
    Interaction(LLC_LAYERS, ("llc.builds", "llc.build_s"),
                ("reproduce_s",), ("all-cold", "all-warm"),
                "533 `make_llc` builds in 2.0 s on all-cold; 0.25 of 8.2 s on all-warm"),
    Interaction("repro.sim", ("sim.engine_runs", "sim.engine_s", "sim.engine_self_s",
                              "sim.run_p50_s", "sim.run_tail_s", "sim.accesses",
                              "sim.ns_per_access"),
                ("reproduce_s", "cpu_s"), ("all-cold", "all-warm"),
                "engine self time is 90% of all-cold and 88% of all-warm "
                "(the store-bypassing drivers)"),
    Interaction("repro.sim", ("sim.runs_scalar", "sim.runs_hybrid", "sim.runs_vector",
                              "sim.lru_batch_calls"),
                ("reproduce_s", "cpu_s"), ("all-cold", "all-warm"),
                "which engine path did that work; every run is scalar under the default engine"),
    Interaction(LLC_LAYERS, ("llc.object_accesses", "llc.hit_ratio", "nucache.deli_hit_ratio",
                             "nucache.epochs"),
                ("reproduce_s",), ("all-cold", "all-warm"),
                "per-access Python LLC work inside the engine time; the ratios are model "
                "outputs a perf change must leave unchanged"),
    Interaction("repro.exec", ("exec.batches", "exec.jobs_submitted", "exec.jobs_unique",
                               "exec.jobs_computed"),
                ("reproduce_s", "cpu_s"), ("all-cold",),
                "each computed job is one simulation: 456 of 642 submitted on all-cold"),
    Interaction("repro.exec", ("exec.jobs_cached",),
                ("reproduce_s",), ("all-warm",),
                "all 642 submitted jobs of all-warm are served by 504 store reads"),
    Interaction("repro.exec", ("exec.jobs_failed", "exec.jobs_retried"),
                ("reproduce_s",), ("all-cold",),
                "0 on every workload; a retry recomputes a job, a failure also counts in "
                "`failed`"),
    Interaction("repro.exec", ("exec.self_s", "exec.validate_s"),
                ("reproduce_s",), ("all-cold",),
                "scheduler and `execute_job` glue: 3.0 s of all-cold; validation under 0.02 s"),
    Interaction("repro.exec.stores", ("store.gets", "store.get_hit_ratio", "store.io_s",
                                      "store.codec_s", "store.degraded"),
                ("reproduce_s",), ("all-warm",),
                "reads take 0.04 of 8.2 s, so a store-only change should move no end-to-end "
                "metric; a degraded store recomputes every job"),
    Interaction("repro.exec.stores", ("store.puts",),
                ("reproduce_s",), ("all-cold",),
                "343 writes in 0.18 of 68.8 s"),
    Interaction("e2ebench", ("trace.wall_s", "trace.residual_s"),
                ("reproduce_s",), ("all-warm", "all-cold"),
                "the residual (CLI, drivers' aggregation and rendering, journal) is 0.41 of "
                "8.2 s on all-warm, 0.5 s on all-cold"),
)

#: metric -> (end-to-end metrics it should move, on which workloads).
MOVES: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    metric: (row.moves, row.on) for row in INTERACTIONS for metric in row.metrics
}


def interaction_table() -> str:
    """:data:`INTERACTIONS` as the README's markdown table."""

    def code(names: Sequence[str]) -> str:
        return ", ".join(f"`{name}`" for name in names)

    lines = ["| layer | metrics | should move | on | traced evidence |", "|---|---|---|---|---|"]
    lines += [f"| {code(row.layer.split(', '))} | {code(row.metrics)} | {code(row.moves)} "
              f"| {code(row.on)} | {row.evidence} |" for row in INTERACTIONS]
    return "\n".join(lines)


Finish = Optional[Callable[[Sequence[Any], Any], Dict[str, Any]]]


class LayerTracer:
    """In-memory span recorder that wraps the layers' entry points."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index, attrs]`` per span.
        self.spans: List[List[Any]] = []
        self.counters: Counter = Counter()
        self._stack: List[int] = []
        self._bindings: List[Tuple[object, str, object]] = []
        #: id(stand-in) -> (stand-in, original); holding the stand-in
        #: keeps its id from being reused while aliases are swept.
        self._standins: Dict[int, Tuple[Callable, Callable]] = {}

    # -- recording ----------------------------------------------------

    def call(self, name: str, fn: Callable, finish: Finish, args: Sequence[Any],
             kwargs: Dict[str, Any]) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``.

        ``finish(args, result)`` may return attributes for the span.
        """
        stack = self._stack
        if stack and self.spans[stack[-1]][0] == name:
            return fn(*args, **kwargs)
        record: List[Any] = [name, 0.0, 0.0, stack[-1] if stack else None, None]
        stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if finish is not None:
                record[4] = finish(args, result)
            return result
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def wrap(self, name: str, fn: Callable, finish: Finish = None) -> Callable:
        """A traced stand-in for ``fn``."""
        call = self.call

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            return call(name, fn, finish, args, kwargs)

        self._standins[id(traced)] = (traced, fn)
        return traced

    def counted(self, name: str, fn: Callable) -> Callable:
        """A stand-in for ``fn`` that only counts its calls."""
        counters = self.counters

        @functools.wraps(fn)
        def counting(*args: Any, **kwargs: Any) -> Any:
            counters[name] += 1
            return fn(*args, **kwargs)

        self._standins[id(counting)] = (counting, fn)
        return counting

    # -- installation -------------------------------------------------

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._bindings.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _sweep(self, swaps: Dict[int, Tuple[Callable, Callable]], record: bool) -> None:
        """Swap every loaded ``repro`` module attribute found in ``swaps``.

        ``swaps`` maps ``id(old)`` to ``(old, new)``; ``record`` keeps
        the old binding for :meth:`uninstall`.
        """
        for name, module in list(sys.modules.items()):
            if name == "repro" or name.startswith("repro."):
                for key, value in list(vars(module).items()):
                    swap = swaps.get(id(value))
                    if swap is not None and swap[0] is value:
                        if record:
                            self._patch(module, key, swap[1])
                        else:
                            setattr(module, key, swap[1])

    def install(self) -> None:
        """Wrap every layer; :meth:`uninstall` undoes it."""
        import repro.cli  # noqa: F401 — loads every module that aliases a wrapped name
        import repro.exec.context as context
        import repro.exec.job as job
        import repro.exec.stores.base as base
        import repro.exec.validate as validate
        import repro.sim.policies as policies
        import repro.sim.vector as vector
        import repro.workloads.synthetic as synthetic
        from repro.exec.scheduler import Scheduler
        from repro.sim.engine import MulticoreEngine

        timed = {
            "workloads.trace": synthetic.generate_trace,
            "llc.build": policies.make_llc,
            "exec.runner": job.execute_job,
            "exec.validate": validate.validate_result,
            "store.encode": base.encode_entry,
            "store.decode": base.decode_entry,
        }
        replacements = {id(fn): (fn, self.wrap(name, fn)) for name, fn in timed.items()}
        lru_batch = vector.lru_batch
        replacements[id(lru_batch)] = (lru_batch, self.counted("sim.lru_batch", lru_batch))
        self._sweep(replacements, record=True)
        make_store = context.make_store
        self._patch(context, "make_store", functools.wraps(make_store)(
            lambda *args, **kwargs: _TracedStore(make_store(*args, **kwargs), self)
        ))
        for cls in (MulticoreEngine, vector.VectorEngine):
            self._patch(cls, "run", self.wrap("sim.engine", cls.__dict__["run"], _engine_attrs))
        self._patch(Scheduler, "run", self.wrap("exec.scheduler", Scheduler.run, _batch_attrs))

    def uninstall(self) -> None:
        """Restore every binding, including aliases made while installed."""
        while self._bindings:
            owner, attr, original = self._bindings.pop()
            setattr(owner, attr, original)
        self._sweep(self._standins, record=False)

    @contextmanager
    def installed(self) -> Iterator["LayerTracer"]:
        """Install for the duration of a ``with`` block."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- output -------------------------------------------------------

    def records(self) -> List[Dict[str, Any]]:
        """The spans as dicts (the JSONL schema)."""
        return [
            {"name": name, "start": start, "end": end, "parent": parent, "attrs": attrs or {}}
            for name, start, end, parent, attrs in self.spans
        ]

    def write(self, path: Path) -> None:
        """Write the spans as JSONL, then one ``{"counters": ...}`` line."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.records():
                handle.write(json.dumps(record, sort_keys=True) + "\n")
            handle.write(json.dumps({"counters": dict(self.counters)}, sort_keys=True) + "\n")


class _TracedStore:
    """Result-store proxy: ``get``/``put`` become spans, the rest delegates."""

    def __init__(self, store: Any, tracer: LayerTracer) -> None:
        self._store = store
        self._tracer = tracer

    def get(self, job: Any) -> Any:
        """Traced lookup; the span records whether it hit."""
        return self._tracer.call("store.get", self._store.get, _hit_attrs, (job,), {})

    def put(self, job: Any, result: Any) -> Any:
        """Traced write."""
        return self._tracer.call("store.put", self._store.put, None, (job, result), {})

    def __getattr__(self, name: str) -> Any:
        return getattr(self._store, name)


def _hit_attrs(_args: Sequence[Any], result: Any) -> Dict[str, Any]:
    return {"hit": result is not None}


def _engine_attrs(args: Sequence[Any], _result: Any) -> Dict[str, Any]:
    """Engine path taken plus the LLC object's counters, read once per run."""
    from repro.sim.vector import VectorEngine

    engine = args[0]
    path = "scalar"
    if isinstance(engine, VectorEngine):
        reason = engine.fallback_reason
        path = "vector" if reason is None else reason.split(":", 1)[0]
    counters = engine.llc.snapshot_counters()
    attrs = {
        "path": path,
        "accesses": sum(core.trace_length for core in engine.cores),
        "hits": counters["hits"],
        "misses": counters["misses"],
    }
    if "deli_hits" in counters:
        attrs["deli_hits"] = counters["deli_hits"]
        attrs["epochs"] = counters.get("epochs", 0)
    return attrs


def _batch_attrs(args: Sequence[Any], _result: Any) -> Dict[str, Any]:
    scheduler = args[0]
    report = scheduler.last_report
    return {
        "submitted": report.total,
        "unique": len(scheduler.last_outcomes),
        "computed": report.completed,
        "cached": report.cached,
        "failed": report.failed,
        "retried": report.retried,
        "degraded": report.degraded,
    }


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------


def read_spans(path: Path) -> Tuple[List[Dict[str, Any]], Dict[str, int]]:
    """Parse a file written by :meth:`LayerTracer.write`."""
    spans: List[Dict[str, Any]] = []
    counters: Dict[str, int] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if "counters" in record:
                counters = record["counters"]
            else:
                spans.append(record)
    return spans, counters


def self_times(spans: Sequence[Dict[str, Any]]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [span["end"] - span["start"] for span in spans]
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= span["end"] - span["start"]
    return own


def breakdown(spans: Sequence[Dict[str, Any]]) -> List[Tuple[str, int, float]]:
    """``(span name, calls, self seconds)`` rows, largest self time first."""
    calls: Counter = Counter()
    seconds: Dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        calls[span["name"]] += 1
        seconds[span["name"]] = seconds.get(span["name"], 0.0) + own
    return sorted(
        ((name, calls[name], seconds[name]) for name in calls), key=lambda row: -row[2]
    )


def tail(values: Sequence[float]) -> float:
    """The highest order statistic with at least ten samples above it.

    Below 21 samples no statistic above the median qualifies, and the
    median is reported instead.
    """
    ordered = sorted(values)
    median = statistics.median(ordered)
    return max(median, ordered[len(ordered) - 11]) if len(ordered) > 10 else median


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(spans: Sequence[Dict[str, Any]], counters: Dict[str, int]) -> Dict[str, float]:
    """The per-layer metrics of one traced run."""
    unknown = sorted({span["name"] for span in spans} - set(SELF_TIME_METRIC))
    if unknown:
        raise ValueError(f"spans without a metric: {unknown}")
    values: Dict[str, float] = {metric: 0.0 for metric in SELF_TIME_METRIC.values()}
    for span, own in zip(spans, self_times(spans)):
        values[SELF_TIME_METRIC[span["name"]]] += own

    def named(name: str) -> List[Dict[str, Any]]:
        return [span for span in spans if span["name"] == name]

    def total(group: List[Dict[str, Any]], key: str) -> int:
        return sum(span["attrs"].get(key, 0) for span in group)

    engines = named("sim.engine")
    durations = [span["end"] - span["start"] for span in engines] or [0.0]
    engine_s = sum(durations)
    accesses = total(engines, "accesses")
    hits, misses = total(engines, "hits"), total(engines, "misses")
    nucache = [span for span in engines if "deli_hits" in span["attrs"]]
    batches = named("exec.scheduler")
    gets = named("store.get")
    roots = named(ROOT_SPAN)
    paths = Counter(span["attrs"].get("path") for span in engines)
    values.update({
        "workloads.traces": len(named("workloads.trace")),
        "llc.builds": len(named("llc.build")),
        "sim.engine_runs": len(engines),
        "sim.engine_s": engine_s,
        "sim.run_p50_s": statistics.median(durations),
        "sim.run_tail_s": tail(durations),
        "sim.accesses": accesses,
        "sim.ns_per_access": _ratio(engine_s * 1e9, accesses),
        "sim.runs_scalar": paths["scalar"],
        "sim.runs_hybrid": paths["hybrid"],
        "sim.runs_vector": paths["vector"],
        "sim.lru_batch_calls": counters.get("sim.lru_batch", 0),
        "llc.object_accesses": hits + misses,
        "llc.hit_ratio": _ratio(hits, hits + misses),
        "nucache.deli_hit_ratio": _ratio(total(nucache, "deli_hits"), total(nucache, "hits")),
        "nucache.epochs": total(nucache, "epochs"),
        "exec.batches": len(batches),
        "exec.jobs_submitted": total(batches, "submitted"),
        "exec.jobs_unique": total(batches, "unique"),
        "exec.jobs_computed": total(batches, "computed"),
        "exec.jobs_cached": total(batches, "cached"),
        "exec.jobs_failed": total(batches, "failed"),
        "exec.jobs_retried": total(batches, "retried"),
        "store.gets": len(gets),
        "store.get_hit_ratio": _ratio(sum(1 for s in gets if s["attrs"].get("hit")), len(gets)),
        "store.puts": len(named("store.put")),
        "store.degraded": total(batches, "degraded"),
        "trace.wall_s": sum(span["end"] - span["start"] for span in roots),
    })
    return values
