"""Wall-clock breakdowns for ``nucache-repro runs show <id> --timings``.

Combines the two observability sinks a run leaves behind:

* the **run journal** (always written): experiment wall times, scheduler
  batch wall times, and per-job settle times recorded in each batch's
  outcomes (serial runs time the attempt itself; pooled runs time
  submission-to-settle, queue wait included);
* the **trace directory** (written with ``run --trace``): per-process
  JSONL event files carrying each engine run's path and stage timings
  and NUcache selection rotations, which the journal cannot see
  because they happen inside worker processes.

The journal section always renders; the phase section appears only when
a trace directory exists for the run, and degrades gracefully when it is
partial (a killed worker flushes what it had on exit).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.exec.stores import default_store_dir

#: Subdirectory of the store base holding per-run trace directories.
TRACES_DIR_NAME = "traces"

#: Slowest-job rows rendered per experiment.
TOP_JOBS = 5


def traces_root() -> Path:
    """Where per-run trace directories live (shares the store base)."""
    return default_store_dir() / TRACES_DIR_NAME


def trace_dir_for(run_id: str) -> Path:
    """The trace directory a run with ``run_id`` would have written."""
    return traces_root() / run_id


def load_trace_records(trace_dir: Union[str, Path]) -> List[Dict[str, object]]:
    """Every record from every ``proc-*.jsonl`` file under ``trace_dir``.

    Tolerates torn lines (a killed process loses at most the line in
    flight) and returns ``[]`` for a missing directory.
    """
    trace_dir = Path(trace_dir)
    if not trace_dir.is_dir():
        return []
    records: List[Dict[str, object]] = []
    for path in sorted(trace_dir.glob("proc-*.jsonl")):
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            continue
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict):
                records.append(record)
    return records


def _phase_totals(trace_records: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Aggregate phase durations, engine paths and epochs from trace records."""
    phase_seconds: Dict[str, float] = {}
    phase_counts: Dict[str, int] = {}
    paths: Dict[str, int] = {}
    epochs = 0
    job_seconds: List[float] = []
    # The replay events that count their LLC accesses, and their time.
    replay_accesses = 0
    replay_seconds = 0.0
    for record in trace_records:
        name = record.get("name")
        if record.get("type") == "event" and name == "sim.phase":
            phase = str(record.get("phase", "?"))
            duration = float(record.get("dur", 0.0) or 0.0)
            phase_seconds[phase] = phase_seconds.get(phase, 0.0) + duration
            phase_counts[phase] = phase_counts.get(phase, 0) + 1
            if phase == "replay" and record.get("accesses") is not None:
                replay_accesses += int(record["accesses"])
                replay_seconds += duration
        elif record.get("type") == "event" and name == "nucache.epoch":
            epochs += 1
        elif record.get("type") == "end" and name == "exec.job":
            job_seconds.append(float(record.get("dur", 0.0) or 0.0))
        elif record.get("type") == "end" and name == "sim.run":
            path = str(record.get("path", "?"))
            paths[path] = paths.get(path, 0) + 1
    return {
        "phase_seconds": phase_seconds,
        "phase_counts": phase_counts,
        "paths": paths,
        "epochs": epochs,
        "job_seconds": job_seconds,
        "replay_accesses": replay_accesses,
        "replay_seconds": replay_seconds,
    }


def _slowest_jobs(outcomes: Dict[str, Dict[str, object]]) -> List[Dict[str, object]]:
    rows = []
    for key, outcome in outcomes.items():
        timings = outcome.get("timings") or []
        if not timings:
            continue
        rows.append({
            "key": key,
            "label": outcome.get("label", key[:12]),
            "seconds": float(timings[-1]),
            "attempts": len(timings),
            "status": outcome.get("status"),
        })
    rows.sort(key=lambda row: (-row["seconds"], row["key"]))
    return rows[:TOP_JOBS]


def render_timings(
    summary,
    records: Sequence[Dict[str, object]],
    trace_records: Optional[Sequence[Dict[str, object]]] = None,
) -> str:
    """Render the per-phase / per-job wall-clock breakdown of one run.

    Args:
        summary: the run's :class:`~repro.exec.journal.RunSummary`.
        records: the run's parsed journal records, in file order.
        trace_records: records from the run's trace directory, or
            ``None``/empty when the run was not traced.
    """
    lines: List[str] = [f"timings for {summary.run_id} ({summary.status})"]

    # --- journal side: experiments, batches, per-job attempt timings --
    experiment: Optional[str] = None
    batch_no = 0
    for record in records:
        kind = record.get("record")
        if kind == "experiment_start":
            experiment = str(record.get("experiment"))
            batch_no = 0
        elif kind == "batch":
            batch_no += 1
            report = record.get("report") or {}
            wall = float(report.get("wall_time", 0.0) or 0.0)
            lines.append(
                f"  {experiment or '?'} batch {batch_no} "
                f"[{record.get('label')}]: {wall:.2f}s scheduler wall — "
                f"{report.get('completed', 0)} computed, "
                f"{report.get('cached', 0)} cached, "
                f"{report.get('failed', 0)} failed"
            )
            outcomes = record.get("outcomes") or {}
            for row in _slowest_jobs(outcomes):
                lines.append(
                    f"    {row['seconds']:>8.2f}s  {row['label']} "
                    f"({row['status']}, {row['attempts']} attempt"
                    f"{'s' if row['attempts'] != 1 else ''})"
                )
        elif kind == "experiment_end":
            elapsed = record.get("elapsed")
            if elapsed is not None:
                lines.append(
                    f"  {record.get('experiment')}: {record.get('status')} "
                    f"in {float(elapsed):.2f}s"
                )

    # --- trace side: simulation phases, epochs ------------------------
    if trace_records:
        totals = _phase_totals(trace_records)
        phase_seconds: Dict[str, float] = totals["phase_seconds"]
        job_seconds: List[float] = totals["job_seconds"]
        lines.append("")
        lines.append(
            f"simulation phases (from trace, {len(job_seconds)} job spans)"
        )
        grand = sum(phase_seconds.values())
        for phase in sorted(phase_seconds):
            seconds = phase_seconds[phase]
            count = totals["phase_counts"][phase]
            share = f" ({seconds / grand:.0%})" if grand > 0 else ""
            lines.append(
                f"  {phase:<10} {seconds:>8.2f}s over {count} runs{share}"
            )
        replay_accesses: int = totals["replay_accesses"]
        if replay_accesses:
            nanos = totals["replay_seconds"] * 1e9 / replay_accesses
            lines.append(
                f"  replayed   {replay_accesses:,} LLC accesses, "
                f"{nanos:,.0f} ns per access"
            )
        if totals["epochs"]:
            lines.append(
                f"  epochs     {totals['epochs']} NUcache selection rotations"
            )
        if job_seconds:
            lines.append(
                f"  job wall   {sum(job_seconds):>8.2f}s total, "
                f"{max(job_seconds):.2f}s max"
            )
        paths: Dict[str, int] = totals["paths"]
        if paths:
            lines += ["", f"engine paths (from {sum(paths.values())} sim.run records)"]
            for path in sorted(paths, key=lambda p: (-paths[p], p)):
                lines.append(f"  {path:<32} {paths[path]:>6} runs")
    elif trace_records is not None:
        lines.append("")
        lines.append(
            "no trace records for this run "
            "(re-run with --trace for per-phase breakdowns)"
        )
    return "\n".join(lines)
