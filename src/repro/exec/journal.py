"""Append-only run journal: what did this invocation do, and how far did it get.

Every ``nucache-repro run`` writes a manifest of its progress as one
JSONL file under ``<store base>/runs/<run-id>.jsonl`` (override the base
with ``$REPRO_CACHE_DIR`` as usual).  Each line is one self-contained
record::

    {"record": "start", "run_id": ..., "experiments": [...], ...}
    {"record": "experiment_start", "experiment": "fig5", ...}
    {"record": "batch", "jobs": 24, "outcomes": {...}, "report": {...}}
    {"record": "experiment_end", "experiment": "fig5", "status": "ok",
     "output_sha256": ..., ...}
    {"record": "end", "status": "completed" | "interrupted" | "failed"}

Records are flushed and fsynced as they are written, so a crash or
SIGKILL loses at most the line in flight — and the reader side
(:func:`read_records`) tolerates a truncated final line.  The journal is
what makes runs *resumable*: ``run --resume <run-id>`` loads the
manifest, skips experiments that already completed, and re-runs the
rest, with the content-addressed result store serving every job that
settled before the interruption.  ``nucache-repro runs list``/``show``
inspect past runs.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.common.errors import ExecError
from repro.exec.stores import default_store_dir

#: Subdirectory of the store base where journals live.
RUNS_DIR_NAME = "runs"


def default_runs_dir() -> Path:
    """Where journals live (shares the result store's base directory)."""
    return default_store_dir() / RUNS_DIR_NAME


def new_run_id(now: Optional[float] = None) -> str:
    """A sortable, human-readable run id: ``YYYYmmdd-HHMMSS-<pid>``."""
    stamp = time.strftime("%Y%m%d-%H%M%S", time.localtime(now))
    return f"{stamp}-p{os.getpid()}"


@dataclass
class RunSummary:
    """One journal, digested for listings and resume planning."""

    run_id: str
    path: Path
    created: float = 0.0
    status: str = "unknown"
    experiments: List[str] = field(default_factory=list)
    completed: List[str] = field(default_factory=list)
    jobs_total: int = 0
    jobs_failed: int = 0
    resumed_from: Optional[str] = None

    @property
    def pending(self) -> List[str]:
        """Experiments the run never finished, in original order."""
        done = set(self.completed)
        return [exp for exp in self.experiments if exp not in done]

    def describe(self) -> str:
        """One-line listing entry."""
        when = time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(self.created))
        exps = f"{len(self.completed)}/{len(self.experiments)} experiments"
        tail = f", {self.jobs_failed} jobs failed" if self.jobs_failed else ""
        origin = f" (resumed from {self.resumed_from})" if self.resumed_from else ""
        return f"{self.run_id}  {when}  {self.status:<11} {exps}{tail}{origin}"


class RunJournal:
    """Writer handle for one run's append-only manifest."""

    def __init__(self, path: Path, run_id: str) -> None:
        self.path = path
        self.run_id = run_id
        self.closed = False

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        experiments: Sequence[str],
        jobs: int = 1,
        use_cache: bool = True,
        run_id: Optional[str] = None,
        root: Optional[Union[str, Path]] = None,
        resumed_from: Optional[str] = None,
    ) -> "RunJournal":
        """Open a fresh journal and write its ``start`` record."""
        runs_root = Path(root) if root is not None else default_runs_dir()
        runs_root.mkdir(parents=True, exist_ok=True)
        rid = run_id or new_run_id()
        path = runs_root / f"{rid}.jsonl"
        suffix = 0
        while path.exists():
            suffix += 1
            rid = f"{run_id or new_run_id()}-{suffix}"
            path = runs_root / f"{rid}.jsonl"
        journal = cls(path, rid)
        journal.append(
            {
                "record": "start",
                "run_id": rid,
                "experiments": list(experiments),
                "jobs": jobs,
                "use_cache": use_cache,
                "resumed_from": resumed_from,
            }
        )
        return journal

    def append(self, record: Dict[str, object]) -> None:
        """Write one record as a JSON line, durably (flush + fsync)."""
        if self.closed:
            return
        payload = dict(record)
        payload.setdefault("time", time.time())
        line = json.dumps(payload, sort_keys=True) + "\n"
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line)
            handle.flush()
            os.fsync(handle.fileno())

    def record_experiment_start(self, experiment_id: str) -> None:
        """Mark an experiment as begun."""
        self.append({"record": "experiment_start", "experiment": experiment_id})

    def record_batch(
        self,
        outcomes: Dict[str, Dict[str, object]],
        report,
        label: Optional[str] = None,
        status: str = "ok",
    ) -> None:
        """Record one scheduler batch: job keys, outcomes, and the report."""
        payload: Dict[str, object] = {
            "record": "batch",
            "status": status,
            "label": label,
            "jobs": len(outcomes),
            "outcomes": outcomes,
        }
        if report is not None:
            payload["report"] = {
                "total": report.total,
                "completed": report.completed,
                "cached": report.cached,
                "failed": report.failed,
                "retried": report.retried,
                "wall_time": report.wall_time,
            }
            # Robustness counters ride in a separate key, and only when
            # something actually happened — a healthy run's batch
            # records stay byte-identical to pre-lease journals.
            store_fields = getattr(report, "store_fields", None)
            if store_fields is not None:
                extras = store_fields()
                if extras:
                    payload["store"] = extras
        self.append(payload)

    def record_experiment_end(
        self,
        experiment_id: str,
        status: str = "ok",
        output_sha256: Optional[str] = None,
        elapsed: Optional[float] = None,
    ) -> None:
        """Mark an experiment as finished (or interrupted/failed)."""
        self.append(
            {
                "record": "experiment_end",
                "experiment": experiment_id,
                "status": status,
                "output_sha256": output_sha256,
                "elapsed": elapsed,
            }
        )

    def close(self, status: str, error: Optional[str] = None) -> None:
        """Write the terminal ``end`` record; later appends are ignored."""
        self.append({"record": "end", "status": status, "error": error})
        self.closed = True


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------


def load_journal(
    path: Union[str, Path]
) -> "tuple[List[Dict[str, object]], List[str]]":
    """Parse a journal file into ``(records, warnings)``.

    The valid prefix is always returned.  A truncated final line — the
    expected damage from a hard kill mid-``append`` — yields a single
    "torn tail" warning; an unparsable record *before* other valid ones
    means real corruption, so each such line gets its own warning with
    its line number.  Callers that only want the records can use
    :func:`read_records`; ``runs show`` surfaces the warnings.
    """
    records: List[Dict[str, object]] = []
    warnings: List[str] = []
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ExecError(f"cannot read journal {path}: {exc}") from exc
    bad: List[int] = []  # 1-based line numbers that failed to parse
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            record = json.loads(stripped)
        except ValueError:
            bad.append(lineno)
            continue
        if not isinstance(record, dict):
            bad.append(lineno)
            continue
        for earlier in bad:
            warnings.append(
                f"journal {Path(path).name}: line {earlier} is corrupt; skipped"
            )
        bad = []
        records.append(record)
    if bad:
        # Unparsable lines with nothing valid after them: a torn tail
        # from an interrupted write, not mid-file corruption.
        warnings.append(
            f"journal {Path(path).name}: torn trailing record "
            f"(line {bad[0]}) dropped; showing the valid prefix"
        )
    return records, warnings


def read_records(path: Union[str, Path]) -> List[Dict[str, object]]:
    """Parse a journal file, tolerating truncated/corrupt lines.

    Convenience wrapper over :func:`load_journal` that discards the
    warnings (resume planning and listings only need the records).
    """
    records, _warnings = load_journal(path)
    return records


def summarize(path: Union[str, Path]) -> RunSummary:
    """Digest one journal file into a :class:`RunSummary`."""
    path = Path(path)
    summary = RunSummary(run_id=path.stem, path=path)
    for record in read_records(path):
        kind = record.get("record")
        if kind == "start":
            summary.run_id = str(record.get("run_id", summary.run_id))
            summary.created = float(record.get("time", 0.0))
            summary.experiments = [str(e) for e in record.get("experiments", [])]
            raw_origin = record.get("resumed_from")
            summary.resumed_from = str(raw_origin) if raw_origin else None
            summary.status = "running"
        elif kind == "experiment_end" and record.get("status") == "ok":
            summary.completed.append(str(record.get("experiment")))
        elif kind == "batch":
            report = record.get("report") or {}
            summary.jobs_total += int(report.get("total", 0))
            summary.jobs_failed += int(report.get("failed", 0))
        elif kind == "end":
            summary.status = str(record.get("status", "unknown"))
    if summary.status == "running":
        # No end record: the process died without closing the journal.
        summary.status = "aborted"
    return summary


def list_runs(root: Optional[Union[str, Path]] = None) -> List[RunSummary]:
    """Summaries of every journal under ``root``, newest first."""
    runs_root = Path(root) if root is not None else default_runs_dir()
    if not runs_root.is_dir():
        return []
    summaries = [summarize(path) for path in runs_root.glob("*.jsonl")]
    summaries.sort(key=lambda s: (s.created, s.run_id), reverse=True)
    return summaries


def find_run(
    run_id: str, root: Optional[Union[str, Path]] = None
) -> RunSummary:
    """Resolve a run id (or unambiguous prefix) to its summary."""
    runs_root = Path(root) if root is not None else default_runs_dir()
    exact = runs_root / f"{run_id}.jsonl"
    if exact.is_file():
        return summarize(exact)
    matches = [
        path for path in sorted(runs_root.glob("*.jsonl"))
        if path.stem.startswith(run_id)
    ] if runs_root.is_dir() else []
    if not matches:
        raise ExecError(
            f"no run journal matching {run_id!r} under {runs_root} "
            f"(see 'nucache-repro runs list')"
        )
    if len(matches) > 1:
        names = ", ".join(path.stem for path in matches[:5])
        raise ExecError(f"run id prefix {run_id!r} is ambiguous: {names}")
    return summarize(matches[0])
