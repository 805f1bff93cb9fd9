"""Command-line interface: ``nucache-repro``.

Subcommands::

    nucache-repro list                 # list experiments and workloads
    nucache-repro run fig5 [fig6 ...]  # run experiments, print tables
    nucache-repro run all --jobs 4     # every experiment, 4 workers
    nucache-repro run fig5 --no-cache  # bypass the result store
    nucache-repro run fig5 --trace     # structured trace + metrics.json
    nucache-repro run fig5 --profile   # cProfile workers, hot-function table
    nucache-repro run fig5 --engine vector   # numpy batch engine, same bytes
    nucache-repro run --resume <id>    # finish an interrupted run
    nucache-repro runs list            # past runs (from their journals)
    nucache-repro runs show <id>       # one run's journal, readable
    nucache-repro runs show <id> --timings   # wall-clock/phase breakdown
    nucache-repro explore list         # studies, algorithms, objectives
    nucache-repro explore run nucache-split --algo ga --budget 32 --seed 7
    nucache-repro explore resume <id>  # finish an interrupted search
    nucache-repro explore show <id>    # report + per-probe provenance
    nucache-repro sim --mix mix4_1 --policy nucache   # one simulation
    nucache-repro cache stats                         # result-store report
    nucache-repro cache prune --keep 1000             # trim the store
    nucache-repro store serve /var/cache/nucache --port 4070   # share a store
    nucache-repro run fig5 --store net://storehost:4070   # run against it
    nucache-repro check --quick                       # oracle fuzz sweep (CI)
    nucache-repro check --replay <file>               # replay a reproducer
    nucache-repro characterize art_like               # reuse-distance report
    nucache-repro trace art_like -o art.trace         # export a trace
    nucache-repro bench --quick -o BENCH_now.json     # perf benchmarks
    nucache-repro bench compare BENCH_baseline.json BENCH_now.json \
        --max-regress 15%                             # perf-regression gate

Every ``run`` writes an append-only journal (one JSONL manifest under
``<cache dir>/runs/``).  A run interrupted by SIGINT/SIGTERM drains
gracefully, flushes the journal, and prints a ``--resume`` hint; the
resumed run skips completed experiments and is served settled jobs from
the result store, so its output is byte-identical to an uninterrupted
run.

``run --trace`` switches on the observability layer (:mod:`repro.obs`):
a structured event trace under ``<cache dir>/traces/<run-id>/`` and a
deterministic ``metrics.json`` next to it; ``run --profile`` adds
per-job cProfile capture with a merged hot-function table per
experiment.  Both are strictly observational — simulated numbers (and
the tables printed on stdout) are byte-identical with or without them.
``runs show <id> --timings`` renders the wall-clock breakdown after the
fact.

Trace lengths can be scaled globally with the ``REPRO_SCALE``
environment variable (e.g. ``REPRO_SCALE=0.5`` for half-length traces).
Worker counts default from ``REPRO_JOBS``; the result store lives under
``REPRO_CACHE_DIR`` (default ``~/.cache/nucache-repro``).  Execution
summaries (computed/cached/failed job counts) and all observability
output go to stderr so tables on stdout stay byte-stable.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.common.errors import ExecError, ReproError, RunInterrupted, StoreError
from repro.common.rng import DEFAULT_SEED
from repro.exec import RunJournal
from repro.exec import context as exec_context
from repro.exec import journal as run_journal
from repro.experiments import experiment_ids, run_experiment
from repro.metrics.multicore import weighted_speedup
from repro.sim.policies import policy_names
from repro.sim.runner import DEFAULT_ACCESSES, alone_ipc, run_mix, run_single
from repro.sim.vector import ENGINE_ENV, ENGINE_MODES
from repro.workloads.mixes import all_mixes, mix_members
from repro.workloads.spec_like import catalog


def _cmd_list(_args: argparse.Namespace) -> int:
    print("experiments:")
    for experiment_id in experiment_ids():
        print(f"  {experiment_id}")
    print("\npolicies:")
    print("  " + ", ".join(policy_names()))
    print("\nbenchmarks:")
    for name, klass, _spec in catalog():
        print(f"  {name:<18} [{klass}]")
    print("\nmixes:")
    for cores, names in all_mixes().items():
        print(f"  {cores}-core: " + ", ".join(names))
    return 0


def _resolve_run_request(args: argparse.Namespace) -> tuple:
    """Experiments to run plus the journal's resumed-from id (or None)."""
    if args.resume:
        if args.experiments:
            raise ExecError("pass experiment ids or --resume, not both")
        summary = run_journal.find_run(args.resume)
        pending = summary.pending
        for experiment_id in summary.completed:
            print(
                f"[resume] skipping {experiment_id} (completed in {summary.run_id})",
                file=sys.stderr,
            )
        return pending, summary.run_id
    requested = args.experiments
    if not requested:
        raise ExecError("run needs experiment ids (or --resume <run-id>)")
    if requested == ["all"]:
        requested = experiment_ids()
    return requested, None


class _ObsSession:
    """Observability wiring for one ``run`` invocation (``--trace``/``--profile``).

    Owns the run's trace directory, the process-wide tracer activation
    (via ``$REPRO_TRACE_DIR``, so pool workers inherit it), the metrics
    registry, and per-experiment profile capture.  :meth:`finish`
    restores all process-wide state and exports ``metrics.json`` —
    everything it prints goes to stderr, keeping stdout byte-stable.
    """

    def __init__(self, run_id: str, trace: bool, profile: bool) -> None:
        from repro.obs.metrics import MetricsRegistry, set_registry
        from repro.obs.timings import trace_dir_for

        self.trace = trace
        self.profile = profile
        self.dir = trace_dir_for(run_id)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.registry = MetricsRegistry()
        set_registry(self.registry)
        self._saved_env: Optional[str] = None
        if trace:
            from repro.obs.trace import TRACE_ENV_VAR, reset_tracer

            self._saved_env = os.environ.get(TRACE_ENV_VAR)
            os.environ[TRACE_ENV_VAR] = str(self.dir)
            reset_tracer()
        print(f"[obs] writing to {self.dir}", file=sys.stderr)

    def start_experiment(self, experiment_id: str) -> None:
        """Point per-job profile dumps at this experiment's directory."""
        if self.profile:
            exec_context.configure(
                profile_dir=str(self.dir / "profiles" / experiment_id)
            )

    def end_experiment(self, experiment_id: str) -> None:
        """Merge and render this experiment's profile dumps (stderr)."""
        if not self.profile:
            return
        from repro.obs.profile import merge_profiles, render_hot_table

        stats = merge_profiles(self.dir / "profiles" / experiment_id)
        if stats is None:
            print(
                f"[profile] {experiment_id}: nothing executed "
                "(all jobs served from the result store?)",
                file=sys.stderr,
            )
            return
        print(
            render_hot_table(stats, title=f"[profile] {experiment_id}"),
            file=sys.stderr,
        )

    def finish(self) -> None:
        """Flush the trace, export metrics.json, restore global state."""
        from repro.obs.metrics import set_registry
        from repro.obs.trace import TRACE_ENV_VAR, reset_tracer

        if self.profile:
            exec_context.configure(profile_dir="")
        if self.trace:
            reset_tracer()  # closes the main process's tracer (flushes)
            if self._saved_env is None:
                os.environ.pop(TRACE_ENV_VAR, None)
            else:
                os.environ[TRACE_ENV_VAR] = self._saved_env
        path = self.registry.export(self.dir / "metrics.json")
        set_registry(None)
        print(f"[obs] metrics written to {path}", file=sys.stderr)


def _apply_engine_choice(args: argparse.Namespace) -> None:
    """Export ``--engine`` to the environment before any engine is built.

    Worker processes are forked after this point, so the choice reaches
    scheduler jobs too.  Results are engine-independent by construction;
    the flag only selects the implementation.
    """
    engine = getattr(args, "engine", None)
    if engine is not None:
        os.environ[ENGINE_ENV] = engine


def _cmd_run(args: argparse.Namespace) -> int:
    import hashlib
    import time as time_mod

    _apply_engine_choice(args)
    exec_context.configure(
        jobs=args.jobs,
        use_cache=False if args.no_cache else None,
        store=getattr(args, "store", None),
    )
    try:
        requested, resumed_from = _resolve_run_request(args)
    except ExecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if resumed_from is not None and not requested:
        print(f"[resume] {resumed_from}: nothing left to run", file=sys.stderr)
        return 0

    config = exec_context.current()
    journal = RunJournal.create(
        experiments=requested,
        jobs=config.jobs,
        use_cache=config.use_cache,
        resumed_from=resumed_from,
    )
    exec_context.set_journal(journal)
    print(f"[run] id={journal.run_id} journal={journal.path}", file=sys.stderr)
    obs: Optional[_ObsSession] = None
    if args.trace or args.profile:
        obs = _ObsSession(journal.run_id, trace=args.trace, profile=args.profile)
    try:
        for experiment_id in requested:
            exec_context.reset_totals()
            journal.record_experiment_start(experiment_id)
            if obs is not None:
                obs.start_experiment(experiment_id)
            started = time_mod.monotonic()
            try:
                result = run_experiment(experiment_id)
            except (RunInterrupted, KeyboardInterrupt):
                journal.record_experiment_end(experiment_id, status="interrupted")
                journal.close("interrupted")
                print(
                    f"[run] interrupted during {experiment_id} — resume with: "
                    f"nucache-repro run --resume {journal.run_id}",
                    file=sys.stderr,
                )
                return 130
            except Exception as exc:
                journal.record_experiment_end(experiment_id, status="failed")
                journal.close("failed", error=repr(exc))
                raise
            if args.bars:
                from repro.experiments.plots import render_with_bars

                text = render_with_bars(result)
            else:
                text = result.to_text()
            print(text)
            print()
            journal.record_experiment_end(
                experiment_id,
                status="ok",
                output_sha256=hashlib.sha256(text.encode("utf-8")).hexdigest(),
                elapsed=time_mod.monotonic() - started,
            )
            if obs is not None:
                obs.end_experiment(experiment_id)
            report = exec_context.totals()
            if report.total:
                print(f"[exec] {experiment_id}: {report.describe()}", file=sys.stderr)
    finally:
        exec_context.set_journal(None)
        if obs is not None:
            obs.finish()
    journal.close("completed")
    return 0


def _print_failed_outcome(key: str, outcome: dict) -> None:
    """Render one failed job's journaled forensics for ``runs show``.

    Prints the short error first, then the preserved worker traceback,
    any violated invariants, and a bounded rendering of the state
    snapshot an :class:`~repro.common.errors.InvariantViolation`
    carried — everything the scheduler's ``_record_outcome`` persisted.
    """
    import json as json_mod

    print(f"      failed {key[:12]} [{outcome.get('label')}] after "
          f"{outcome.get('attempts')} attempt(s): {outcome.get('error')}")
    for violation in outcome.get("violations") or []:
        print(f"        violated: {violation}")
    traceback_text = outcome.get("traceback")
    if traceback_text:
        for line in str(traceback_text).rstrip().splitlines():
            print(f"        | {line}")
    snapshot = outcome.get("snapshot")
    if snapshot:
        rendered = json_mod.dumps(snapshot, sort_keys=True)
        if len(rendered) > 2000:
            rendered = rendered[:2000] + f"... ({len(rendered)} chars total)"
        print(f"        snapshot: {rendered}")


def _cmd_runs(args: argparse.Namespace) -> int:
    if args.action == "list":
        summaries = run_journal.list_runs()
        if not summaries:
            print("no recorded runs")
            return 0
        for summary in summaries:
            print(summary.describe())
        return 0
    # show
    if not args.run_id:
        print("error: 'runs show' needs a run id (see 'runs list')", file=sys.stderr)
        return 2
    try:
        summary = run_journal.find_run(args.run_id)
    except ExecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    records, warnings = run_journal.load_journal(summary.path)
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if args.timings:
        from repro.obs.timings import (
            load_trace_records,
            render_timings,
            trace_dir_for,
        )

        trace_records = load_trace_records(trace_dir_for(summary.run_id))
        print(render_timings(summary, records, trace_records))
        return 0
    print(summary.describe())
    for record in records:
        kind = record.get("record")
        if kind == "start":
            print(f"  start: experiments={record.get('experiments')} "
                  f"jobs={record.get('jobs')} use_cache={record.get('use_cache')}"
                  + (f" resumed_from={record['resumed_from']}"
                     if record.get("resumed_from") else ""))
        elif kind == "experiment_start":
            print(f"  {record.get('experiment')}: started")
        elif kind == "explore_start":
            print(f"  explore: study={record.get('study')} "
                  f"algo={record.get('algo')} seed={record.get('seed')} "
                  f"budget={record.get('budget')} "
                  f"objective={record.get('objective')} "
                  f"space={str(record.get('space_hash'))[:16]}")
        elif kind == "probe":
            print(_render_probe_record(record))
        elif kind == "batch":
            report = record.get("report") or {}
            print(f"    batch [{record.get('label')}] {record.get('status')}: "
                  f"{report.get('completed', 0)} computed, "
                  f"{report.get('cached', 0)} cached, "
                  f"{report.get('failed', 0)} failed of {report.get('total', 0)}")
            store_extras = record.get("store") or {}
            if store_extras:
                rendered = " ".join(
                    f"{key}={store_extras[key]}" for key in sorted(store_extras)
                )
                print(f"      store: {rendered}")
            for key, outcome in (record.get("outcomes") or {}).items():
                if not isinstance(outcome, dict) or outcome.get("status") != "failed":
                    continue
                _print_failed_outcome(str(key), outcome)
        elif kind == "experiment_end":
            line = f"  {record.get('experiment')}: {record.get('status')}"
            if record.get("elapsed") is not None:
                line += f" in {record['elapsed']:.2f}s"
            print(line)
        elif kind == "end":
            line = f"  end: {record.get('status')}"
            if record.get("error"):
                line += f" ({record['error']})"
            print(line)
    return 0


def _render_probe_record(record: dict) -> str:
    """One journal ``probe`` record as a ``runs show`` line.

    Surfaces what the deterministic report deliberately omits: how many
    of the probe's jobs were served from the result store vs computed,
    and the computed jobs' settle times.
    """
    params = record.get("params") or {}
    shown = " ".join(f"{k}={params[k]}" for k in sorted(params))
    if not record.get("valid"):
        body = "invalid"
    else:
        body = f"objective={record.get('objective')}"
    keys = record.get("job_keys") or []
    cached = int(record.get("cached") or 0)
    computed = int(record.get("computed") or 0)
    total = cached + computed
    if record.get("replayed"):
        provenance = "replayed from journal"
    elif total:
        provenance = (
            f"{len(keys)} jobs, {cached}/{total} cached "
            f"({cached / total:.0%} cache-hit)"
        )
        settle = [float(t) for t in record.get("settle") or []]
        if settle:
            provenance += (
                f", settle max {max(settle):.3f}s "
                f"avg {sum(settle) / len(settle):.3f}s"
            )
    else:
        provenance = "no jobs"
    return (f"    probe {record.get('index'):>3}: {body}  [{provenance}]  "
            f"{shown}")


def _cmd_explore(args: argparse.Namespace) -> int:
    from repro import explore

    if args.explore_cmd == "list":
        print("studies:")
        for name in explore.study_names():
            study = explore.get_study(name)
            print(f"  {name:<16} {study.title}")
            print(f"  {'':<16} mix={study.mix} policy={study.policy} "
                  f"space={study.space.describe()} "
                  f"({study.space.size} points)")
        print("\nalgorithms:")
        print("  " + ", ".join(explore.algorithm_names()))
        print("\nobjectives:")
        print("  " + ", ".join(explore.objective_names()))
        return 0

    if args.explore_cmd == "show":
        return _explore_show(args.target)

    # run / resume
    exec_context.configure(
        jobs=args.jobs,
        use_cache=False if args.no_cache else None,
        store=getattr(args, "store", None),
    )

    def _progress(event: dict) -> None:
        params = event.get("params") or {}
        shown = " ".join(f"{k}={params[k]}" for k in sorted(params))
        if event.get("replayed"):
            status = "replayed"
        elif not event.get("valid"):
            status = "invalid"
        else:
            status = f"objective={event.get('objective')}"
        print(f"[explore] probe {event.get('index')}: {status}  {shown}",
              file=sys.stderr)

    try:
        if args.explore_cmd == "resume":
            outcome = explore.resume_search(
                args.run_id, output=args.output, progress=_progress
            )
        else:
            outcome = explore.run_search(
                args.study,
                algo=args.algo,
                budget=args.budget,
                seed=args.seed,
                objective=args.objective,
                output=args.output,
                progress=_progress,
            )
    except RunInterrupted as exc:
        print(f"[explore] {exc}", file=sys.stderr)
        return 130
    except (explore.ExploreError, ExecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(explore.render_report(outcome.report))
    print(f"[explore] id={outcome.run_id} report={outcome.report_path}",
          file=sys.stderr)
    print(f"[explore] {outcome.describe()}", file=sys.stderr)
    return 0


def _explore_show(target: str) -> int:
    """Render an explore run (by id/prefix) or explore.json (by path)."""
    from pathlib import Path as _Path

    from repro import explore

    report = None
    records: list = []
    if _Path(target).is_file():
        try:
            report = explore.load_report(target)
        except explore.ExploreError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        try:
            summary = run_journal.find_run(target)
        except ExecError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        records = run_journal.read_records(summary.path)
        start = next(
            (r for r in records if r.get("record") == "explore_start"), None
        )
        if start is None:
            print(f"error: run {summary.run_id} is not an exploration run "
                  "(try 'runs show')", file=sys.stderr)
            return 2
        output = _Path(str(start.get("output") or ""))
        if output.is_file():
            report = explore.load_report(output)
        else:
            print(f"[explore] no report at {output} (run interrupted?); "
                  "showing journal records only", file=sys.stderr)
    if report is not None:
        print(explore.render_report(report))
    probes = [r for r in records if r.get("record") == "probe"]
    if probes:
        print("\nprobe provenance (from the run journal):")
        for record in probes:
            print(_render_probe_record(record))
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.exec.stores import make_store

    try:
        store = make_store(getattr(args, "store", None))
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.action == "stats":
        print(store.stats().describe())
        print(store.describe_health())
    elif args.action == "clear":
        removed = store.clear()
        where = getattr(store, "base", None) or getattr(store, "address", "?")
        print(f"removed {removed} entries from {where}")
    elif args.action == "prune":
        if args.keep is None and args.max_age_days is None:
            print("prune needs --keep and/or --max-age-days", file=sys.stderr)
            return 2
        removed = store.prune(max_age_days=args.max_age_days, keep=args.keep)
        print(f"pruned {removed} entries; now {store.stats().describe()}")
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    """Serve a local fs store to the fleet over TCP.

    Prints one parseable ``listening on HOST:PORT`` line once the socket
    is bound (with ``--port 0`` the kernel picks the port, so callers
    must read it from here).  SIGINT/SIGTERM drain the in-flight
    request, release every held lease, and exit 0 — an interrupted
    server never strands leases or half-written replies.
    """
    import signal
    import threading

    from repro.exec.stores import BACKENDS, FileResultStore, make_store
    from repro.exec.stores.net import StoreServer

    target = args.target
    try:
        if target is not None and "://" not in target and target not in BACKENDS:
            backing = FileResultStore(target)  # a bare path serves fs
        else:
            backing = make_store(target)
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if backing.backend == "net":
        print(
            "error: cannot serve a net:// store (that is already a "
            "server); point serve at a path or an fs:// spec",
            file=sys.stderr,
        )
        return 2
    try:
        server = StoreServer(backing, host=args.host, port=args.port)
    except OSError as exc:
        print(f"error: cannot bind {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 2
    host, port = server.address
    print(f"serving {backing.backend} store "
          f"{getattr(backing, 'base', '?')}", flush=True)
    print(f"listening on {host}:{port}", flush=True)

    stop = threading.Event()

    def _drain(_signum: int, _frame: object) -> None:
        stop.set()

    previous = {
        signum: signal.signal(signum, _drain)
        for signum in (signal.SIGINT, signal.SIGTERM)
    }
    server.start()
    try:
        while not stop.wait(0.2):
            pass
    finally:
        server.close()
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    print("drained; leases released; bye", flush=True)
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    from repro.analysis.characterize import characterize_benchmark

    character = characterize_benchmark(args.benchmark, args.accesses)
    print(character.describe())
    for pc, share in character.pc_access_shares:
        print(f"  pc {pc:#x}: {share:.1%} of accesses")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.workloads.spec_like import benchmark as lookup
    from repro.workloads.synthetic import generate_trace
    from repro.workloads.textio import save_text

    trace = generate_trace(lookup(args.benchmark), args.accesses, args.seed)
    if args.output.endswith(".npz"):
        trace.save(args.output)
    else:
        save_text(trace, args.output)
    print(f"wrote {len(trace)} accesses to {args.output}")
    return 0


def _cmd_sim(args: argparse.Namespace) -> int:
    _apply_engine_choice(args)
    if args.mix:
        members = mix_members(args.mix)
        result = run_mix(args.mix, args.policy, args.accesses, args.seed)
        alone = [
            alone_ipc(name, len(members), args.accesses, args.seed)
            for name in members
        ]
        print(f"mix {args.mix} under {args.policy}:")
        for core, name in zip(result.cores, members):
            print(
                f"  core {core.core_id} {name:<18} ipc={core.ipc:.4f} "
                f"mpki={core.mpki:.2f} llc_hit={core.llc_hit_rate:.3f}"
            )
        print(f"  weighted speedup = {weighted_speedup(result.ipcs, alone):.4f}")
    else:
        result = run_single(args.benchmark, args.policy, args.accesses, args.seed)
        core = result.cores[0]
        print(
            f"{args.benchmark} under {args.policy}: ipc={core.ipc:.4f} "
            f"mpki={core.mpki:.2f} llc_hit={core.llc_hit_rate:.3f}"
        )
    if result.llc_extra:
        print(f"  llc extra: {result.llc_extra}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import (
        benchmark_names,
        compare_payloads,
        load_payload,
        parse_regress_threshold,
        run_suite,
        save_payload,
    )

    if getattr(args, "bench_cmd", None) == "compare":
        try:
            threshold = parse_regress_threshold(args.max_regress)
            baseline = load_payload(args.baseline)
            candidate = load_payload(args.candidate)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        report = compare_payloads(baseline, candidate, threshold)
        print(report.render())
        return report.exit_code
    # default action: run the suite
    names = args.only or None
    if names:
        unknown = sorted(set(names) - set(benchmark_names()))
        if unknown:
            print(
                f"error: unknown benchmark(s) {unknown}; "
                f"known: {benchmark_names()}",
                file=sys.stderr,
            )
            return 2
    payload = run_suite(
        quick=args.quick,
        repetitions=args.repetitions,
        names=names,
        progress=lambda name: print(f"[bench] running {name}...", file=sys.stderr),
    )
    for name, entry in payload["benchmarks"].items():
        print(
            f"{name:<16} {entry['ops_per_sec']:>14,.0f} {entry['unit']}/s "
            f"(median {entry['median_s']:.4f}s over {entry['repetitions']} reps, "
            f"{entry['ops']:,} ops)"
        )
    if args.output:
        save_payload(payload, args.output)
        print(f"[bench] payload written to {args.output}", file=sys.stderr)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.check.fuzz import load_reproducer, replay_stream, run_check

    if args.replay:
        try:
            case, stream, corrupt_after = load_reproducer(args.replay)
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"replaying {len(stream)}-access reproducer: {case.describe()}")
        outcome = replay_stream(case, stream, corrupt_after)
        if outcome is None:
            print("replay completed cleanly (violation did not reproduce)")
            return 0
        violation, index = outcome
        print(f"violation reproduced at access {index}:")
        for line in violation.violations or [str(violation)]:
            print(f"  {line}")
        return 1

    mode = "quick" if args.quick else "full"
    forced = " (forcing one violation)" if args.force_violation else ""
    print(f"check: {mode} grid, seed {args.seed}{forced}", file=sys.stderr)
    report = run_check(
        quick=args.quick,
        seed=args.seed,
        policies=args.policies,
        accesses=args.accesses,
        force_violation=args.force_violation,
        progress=lambda line: print(line, file=sys.stderr),
    )
    if report.ok:
        print(f"check: {report.cases} cases, all clean")
        return 0
    print(f"check: {report.cases} cases, {len(report.failures)} DIVERGED")
    for failure in report.failures:
        print(f"  {failure.case.describe()} at access {failure.access_index}")
        for line in failure.violation.violations[:4]:
            print(f"    {line}")
        if failure.reproducer_path is not None:
            print(f"    reproducer: {failure.reproducer_path}")
    print("replay one with: nucache-repro check --replay <reproducer>")
    # A forced violation proves the pipeline; exactly one is the
    # expected (successful) outcome.
    if args.force_violation and len(report.failures) == 1:
        print("forced violation detected as expected")
        return 0
    return 1


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {raw}")
    return value


#: Help text of every ``--store`` flag.
_STORE_HELP = (
    "result-store backend: fs, fs://PATH, or net://HOST:PORT "
    "(default: REPRO_STORE or fs)"
)


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="nucache-repro",
        description="NUcache (HPCA 2011) reproduction harness",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser("list", help="list experiments and workloads")
    list_parser.set_defaults(func=_cmd_list)

    run_parser = subparsers.add_parser("run", help="run experiments")
    run_parser.add_argument(
        "experiments", nargs="*",
        help="experiment ids (see 'list'), or 'all'",
    )
    run_parser.add_argument(
        "--resume", default=None, metavar="RUN_ID",
        help="resume an interrupted run by its journal id (see 'runs list'); "
        "completed experiments are skipped, settled jobs come from the store",
    )
    run_parser.add_argument(
        "--bars", action="store_true",
        help="append an automatic bar chart per experiment",
    )
    run_parser.add_argument(
        "--jobs", type=_positive_int, default=None, metavar="N",
        help="worker processes for simulation grids (default: REPRO_JOBS or 1)",
    )
    run_parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the persistent result store (always recompute)",
    )
    run_parser.add_argument(
        "--store", default=None, metavar="BACKEND",
        help=_STORE_HELP,
    )
    run_parser.add_argument(
        "--trace", action="store_true",
        help="write a structured event trace and metrics.json under "
        "<cache dir>/traces/<run-id>/ (simulated numbers are unchanged)",
    )
    run_parser.add_argument(
        "--profile", action="store_true",
        help="profile every executed job with cProfile and print a merged "
        "hot-function table per experiment (stderr)",
    )
    run_parser.add_argument(
        "--engine", choices=ENGINE_MODES, default=None,
        help="simulation engine backend (default: REPRO_ENGINE or scalar); "
        "results are byte-identical either way",
    )
    run_parser.set_defaults(func=_cmd_run)

    runs_parser = subparsers.add_parser(
        "runs", help="inspect past runs via their journals"
    )
    runs_parser.add_argument(
        "action", choices=("list", "show"),
        help="list: all recorded runs, newest first; show: one run's records",
    )
    runs_parser.add_argument(
        "run_id", nargs="?", default=None,
        help="run id (or unambiguous prefix) for 'show'",
    )
    runs_parser.add_argument(
        "--timings", action="store_true",
        help="show: render the wall-clock breakdown (journal + trace) "
        "instead of the raw records",
    )
    runs_parser.set_defaults(func=_cmd_runs)

    explore_parser = subparsers.add_parser(
        "explore", help="design-space search over the NUcache knobs"
    )
    explore_sub = explore_parser.add_subparsers(dest="explore_cmd", required=True)
    explore_list = explore_sub.add_parser(
        "list", help="list studies, search algorithms, and objectives"
    )
    explore_list.set_defaults(func=_cmd_explore)

    def _add_explore_exec_args(target: argparse.ArgumentParser) -> None:
        target.add_argument(
            "--jobs", type=_positive_int, default=None, metavar="N",
            help="worker processes (default: REPRO_JOBS or 1); the search "
            "trajectory is identical at any worker count",
        )
        target.add_argument(
            "--no-cache", action="store_true",
            help="bypass the persistent result store (always recompute)",
        )
        target.add_argument(
            "--store", default=None, metavar="BACKEND",
            help=_STORE_HELP,
        )
        target.add_argument(
            "-o", "--output", default=None, metavar="PATH",
            help="where to write explore.json "
            "(default: <cache dir>/explore/<run-id>.json)",
        )

    explore_run = explore_sub.add_parser(
        "run", help="run a search study (see 'explore list')"
    )
    explore_run.add_argument("study", help="study name (see 'explore list')")
    explore_run.add_argument(
        "--algo", default="random", metavar="NAME",
        help="search algorithm: random, grid, hill, or ga "
        "(default: %(default)s)",
    )
    explore_run.add_argument(
        "--budget", type=_positive_int, default=16, metavar="N",
        help="number of probes to evaluate (default: %(default)s)",
    )
    explore_run.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help="search seed (proposal randomness only; simulations use the "
        "study's sim seed; default: %(default)s)",
    )
    explore_run.add_argument(
        "--objective", default=None, metavar="NAME",
        help="objective overriding the study default (ws, ipc, hit_rate, mpki)",
    )
    _add_explore_exec_args(explore_run)
    explore_run.set_defaults(func=_cmd_explore)

    explore_resume = explore_sub.add_parser(
        "resume", help="resume an interrupted search from its journal"
    )
    explore_resume.add_argument(
        "run_id", help="run id (or unambiguous prefix) of the search to resume",
    )
    _add_explore_exec_args(explore_resume)
    explore_resume.set_defaults(func=_cmd_explore)

    explore_show = explore_sub.add_parser(
        "show", help="render a finished search: report plus probe provenance"
    )
    explore_show.add_argument(
        "target", help="run id (or prefix), or a path to an explore.json",
    )
    explore_show.set_defaults(func=_cmd_explore)

    sim_parser = subparsers.add_parser("sim", help="run one simulation")
    group = sim_parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--mix", help="mix name (e.g. mix4_1)")
    group.add_argument("--benchmark", help="benchmark name (e.g. art_like)")
    sim_parser.add_argument("--policy", default="nucache", choices=policy_names())
    sim_parser.add_argument("--accesses", type=int, default=DEFAULT_ACCESSES)
    sim_parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help="root RNG seed for trace generation (default: %(default)s)",
    )
    sim_parser.add_argument(
        "--engine", choices=ENGINE_MODES, default=None,
        help="simulation engine backend (default: REPRO_ENGINE or scalar); "
        "results are byte-identical either way",
    )
    sim_parser.set_defaults(func=_cmd_sim)

    cache_parser = subparsers.add_parser(
        "cache", help="inspect or maintain the persistent result store"
    )
    cache_parser.add_argument(
        "action", choices=("stats", "clear", "prune"),
        help="stats: entry count/footprint; clear: drop everything; "
        "prune: trim by age and/or count",
    )
    cache_parser.add_argument(
        "--keep", type=int, default=None, metavar="N",
        help="prune: keep only the N most recent entries",
    )
    cache_parser.add_argument(
        "--max-age-days", type=float, default=None, metavar="D",
        help="prune: drop entries older than D days",
    )
    cache_parser.add_argument(
        "--store", default=None, metavar="BACKEND",
        help=_STORE_HELP,
    )
    cache_parser.set_defaults(func=_cmd_cache)

    store_parser = subparsers.add_parser(
        "store", help="serve a result store to other machines over TCP"
    )
    store_parser.add_argument(
        "action", choices=("serve",),
        help="serve: run the net-store server for a local backend",
    )
    store_parser.add_argument(
        "target", nargs="?", default=None, metavar="SPEC",
        help="store to serve: a path (fs store rooted there), fs, or an "
        "fs://PATH URL (default: REPRO_STORE or fs)",
    )
    store_parser.add_argument(
        "--host", default="127.0.0.1", metavar="HOST",
        help="interface to bind (default: 127.0.0.1; 0.0.0.0 for a fleet)",
    )
    store_parser.add_argument(
        "--port", type=int, default=0, metavar="PORT",
        help="port to bind (default: 0 = kernel-assigned; the chosen "
        "port is printed as 'listening on HOST:PORT')",
    )
    store_parser.set_defaults(func=_cmd_store)

    def _add_bench_run_args(target: argparse.ArgumentParser) -> None:
        target.add_argument(
            "--quick", action="store_true",
            help="smaller op counts and fewer repetitions (the CI mode)",
        )
        target.add_argument(
            "--repetitions", type=_positive_int, default=None, metavar="K",
            help="repetitions per case; the median is reported "
            "(default: 5 full / 3 quick)",
        )
        target.add_argument(
            "--only", nargs="*", default=None, metavar="NAME",
            help="run only these benchmarks (see docs/benchmarking.md)",
        )
        target.add_argument(
            "-o", "--output", default=None, metavar="PATH",
            help="write the schema-versioned JSON payload here "
            "(e.g. BENCH_candidate.json)",
        )

    bench_parser = subparsers.add_parser(
        "bench", help="run performance benchmarks or compare payloads"
    )
    # `bench --quick` (no sub-subcommand) runs the suite directly.
    _add_bench_run_args(bench_parser)
    bench_sub = bench_parser.add_subparsers(dest="bench_cmd")
    bench_run = bench_sub.add_parser("run", help="run the benchmark suite")
    _add_bench_run_args(bench_run)
    bench_compare = bench_sub.add_parser(
        "compare", help="compare two payloads; exit 1 on regression"
    )
    bench_compare.add_argument("baseline", help="baseline BENCH_*.json")
    bench_compare.add_argument("candidate", help="candidate BENCH_*.json")
    bench_compare.add_argument(
        "--max-regress", default="15%", metavar="PCT",
        help="fail when a benchmark is slower than baseline by more than "
        "this ('15%%' or '0.15'; default %(default)s)",
    )
    bench_parser.set_defaults(func=_cmd_bench)
    bench_run.set_defaults(func=_cmd_bench)
    bench_compare.set_defaults(func=_cmd_bench)

    check_parser = subparsers.add_parser(
        "check",
        help="fuzz the optimized cache kernel against the reference oracle",
    )
    check_parser.add_argument(
        "--quick", action="store_true",
        help="bounded grid for CI: fewer geometries, shorter streams",
    )
    check_parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help="root RNG seed for the fuzz streams (default: %(default)s)",
    )
    check_parser.add_argument(
        "--policies", nargs="+", default=None, metavar="POLICY",
        help="restrict the grid to these policies (default: the full family set)",
    )
    check_parser.add_argument(
        "--accesses", type=_positive_int, default=None, metavar="N",
        help="accesses per stream (default: 1200 quick / 4000 full)",
    )
    check_parser.add_argument(
        "--force-violation", action="store_true",
        help="corrupt the first case mid-stream to prove the "
        "detect/shrink/reproduce pipeline end-to-end",
    )
    check_parser.add_argument(
        "--replay", default=None, metavar="PATH",
        help="replay a reproducer file written by a previous failing check",
    )
    check_parser.set_defaults(func=_cmd_check)

    char_parser = subparsers.add_parser(
        "characterize", help="reuse-distance characterization of a benchmark"
    )
    char_parser.add_argument("benchmark")
    char_parser.add_argument("--accesses", type=int, default=50_000)
    char_parser.set_defaults(func=_cmd_characterize)

    trace_parser = subparsers.add_parser(
        "trace", help="generate and export a benchmark trace"
    )
    trace_parser.add_argument("benchmark")
    trace_parser.add_argument(
        "-o", "--output", required=True,
        help="output path (.npz for native, anything else for text)",
    )
    trace_parser.add_argument("--accesses", type=int, default=DEFAULT_ACCESSES)
    trace_parser.add_argument("--seed", type=int, default=20110212)
    trace_parser.set_defaults(func=_cmd_trace)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream pipe closed early (e.g. `nucache-repro runs list |
        # head`): point stdout at devnull so the interpreter's exit-time
        # flush does not raise a second time, and exit like SIGPIPE.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
