"""Search orchestration: the propose/evaluate/observe loop, journaled.

:func:`run_search` is the one entry point a search goes through (the
CLI's ``explore run`` and ``explore resume`` both land here).  Each run:

1. opens an append-only run journal (the same
   :class:`~repro.exec.journal.RunJournal` machinery ``run --resume``
   uses) and records the search settings in an ``explore_start`` record;
2. loops: the algorithm proposes a batch, the evaluator resolves it
   through the exec scheduler (cache-first, deduplicated, parallel,
   fault-tolerant), the scores are observed, and one ``probe`` record
   per point — params, objective, store keys, cache provenance, settle
   times — is appended to the journal;
3. writes the deterministic ``explore.json`` report and closes the
   journal.

**Resume** replays the journal instead of re-running it: because every
algorithm is deterministic in ``(space, seed, observation history)``,
re-proposing reproduces the recorded trajectory exactly, so journaled
probes are fed back through ``observe`` without touching the scheduler
and only the missing tail is evaluated — an interrupted thousand-probe
search loses at most the batch that was in flight, and even those jobs
are served from the result store.

An interrupt (SIGINT/SIGTERM, surfaced by the scheduler as
:class:`~repro.common.errors.RunInterrupted`) closes the journal with
``interrupted`` status and re-raises; the CLI prints the
``explore resume <run-id>`` hint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.common.errors import RunInterrupted
from repro.common.rng import DEFAULT_SEED
from repro.exec import context as exec_context
from repro.exec import journal as run_journal
from repro.exec.journal import RunJournal
from repro.exec.stores import default_store_dir
from repro.experiments.base import scaled_accesses
from repro.explore.evaluate import Evaluator, ProbeResult, Study, get_objective
from repro.explore.report import build_report, write_report
from repro.explore.search import make_algorithm
from repro.explore.space import ExploreError, Point
from repro.explore.studies import get_study

#: Default probe budget when the CLI does not pass one.
DEFAULT_BUDGET = 16

#: Subdirectory of the store base where explore reports land by default.
EXPLORE_DIR_NAME = "explore"

#: Per-probe progress hook (one event dict per resolved probe).
ProbeHook = Callable[[Dict[str, object]], None]


def default_report_dir() -> Path:
    """Where explore reports live (shares the result store's base)."""
    return default_store_dir() / EXPLORE_DIR_NAME


@dataclass
class ExploreOutcome:
    """Everything one finished search produced."""

    run_id: str
    report: Dict[str, Any]
    report_path: Path
    probes: List[ProbeResult] = field(default_factory=list)
    #: Probes served from the journal transcript (resume), not evaluated.
    replayed: int = 0
    #: Occurrence-weighted job provenance of the probes this run evaluated.
    cached_jobs: int = 0
    computed_jobs: int = 0

    @property
    def cache_fraction(self) -> float:
        """Fraction of this run's evaluated jobs served from the store."""
        total = self.cached_jobs + self.computed_jobs
        if total == 0:
            return 0.0
        return self.cached_jobs / total

    def describe(self) -> str:
        """One-line summary for the CLI (stderr)."""
        evaluated = len(self.probes) - self.replayed
        line = (
            f"{len(self.probes)} probes ({evaluated} evaluated"
            + (f", {self.replayed} replayed from journal" if self.replayed else "")
            + f"), {self.cached_jobs + self.computed_jobs} jobs: "
            f"{self.computed_jobs} computed, {self.cached_jobs} cached "
            f"({self.cache_fraction:.1%} cache-served)"
        )
        best = self.report.get("best")
        if isinstance(best, dict):
            objective = self.report["objective"]["name"]
            line += f", best {objective}={float(best['objective']):.6g}"
        return line


def _probe_record(probe: ProbeResult, replayed: bool) -> Dict[str, object]:
    """The journal record for one resolved probe."""
    record: Dict[str, object] = {
        "record": "probe",
        "index": probe.index,
        "params": dict(probe.point),
        "valid": probe.valid,
        "objective": probe.objective,
        "job_keys": list(probe.job_keys),
        "cached": probe.cached,
        "computed": probe.computed,
        "settle": list(probe.settle),
    }
    if replayed:
        record["replayed"] = True
    return record


def _probe_from_record(record: Dict[str, Any]) -> ProbeResult:
    """Rebuild a :class:`ProbeResult` from its journal record (replay)."""
    objective = record.get("objective")
    return ProbeResult(
        index=int(record["index"]),
        point=dict(record["params"]),
        valid=bool(record.get("valid", False)),
        objective=None if objective is None else float(objective),
        job_keys=[str(k) for k in record.get("job_keys", [])],
        cached=int(record.get("cached", 0)),
        computed=int(record.get("computed", 0)),
        settle=[float(t) for t in record.get("settle", [])],
    )


def run_search(
    study: Union[str, Study],
    algo: str = "random",
    budget: int = DEFAULT_BUDGET,
    seed: int = DEFAULT_SEED,
    objective: Optional[str] = None,
    output: Optional[Union[str, Path]] = None,
    transcript: Optional[Dict[int, Dict[str, Any]]] = None,
    resumed_from: Optional[str] = None,
    progress: Optional[ProbeHook] = None,
) -> ExploreOutcome:
    """Run (or resume, given a ``transcript``) one design-space search.

    Args:
        study: registered study name or a :class:`Study` value.
        algo: search algorithm name (see
            :func:`repro.explore.search.algorithm_names`).
        budget: number of probes to resolve (exhaustion may end the
            search earlier, e.g. a grid smaller than the budget).
        seed: search seed (proposal randomness only; the simulations'
            seed belongs to the study).
        objective: objective name overriding the study default.
        output: where to write ``explore.json`` (default
            ``<store base>/explore/<run-id>.json``).
        transcript: journaled probe records by index, for resume; the
            re-proposed trajectory must match it record for record.
        resumed_from: run id the transcript came from (journal metadata).
        progress: optional per-probe event hook.

    Returns:
        The :class:`ExploreOutcome`, report written and journal closed.
    """
    if budget <= 0:
        raise ExploreError(f"budget must be positive, got {budget}")
    if isinstance(study, str):
        study = get_study(study)
    resolved_objective = get_objective(objective or study.objective)
    accesses = scaled_accesses(study.accesses)
    algorithm = make_algorithm(algo, study.space, seed)
    evaluator = Evaluator(study, resolved_objective, accesses)
    transcript = transcript or {}

    config = exec_context.current()
    experiment_label = f"explore:{study.name}"
    journal = RunJournal.create(
        experiments=[experiment_label],
        jobs=config.jobs,
        use_cache=config.use_cache,
        resumed_from=resumed_from,
    )
    report_path = Path(output) if output is not None else (
        default_report_dir() / f"{journal.run_id}.json"
    )
    report_path = report_path.resolve()
    journal.append(
        {
            "record": "explore_start",
            "study": study.name,
            "space_hash": study.space.space_hash(),
            "algo": algo,
            "seed": seed,
            "budget": budget,
            "objective": resolved_objective.name,
            "accesses": accesses,
            "output": str(report_path),
        }
    )
    journal.record_experiment_start(experiment_label)

    outcome = ExploreOutcome(
        run_id=journal.run_id, report={}, report_path=report_path
    )
    previous_journal = exec_context.active_journal()
    exec_context.set_journal(journal)
    try:
        while len(outcome.probes) < budget:
            proposed = algorithm.propose(budget - len(outcome.probes))
            if not proposed:
                break
            proposed = proposed[: budget - len(outcome.probes)]
            first_index = len(outcome.probes)
            batch = _resolve_batch(
                proposed, first_index, evaluator, transcript, outcome
            )
            for probe, replayed in batch:
                journal.append(_probe_record(probe, replayed))
                outcome.probes.append(probe)
                if progress is not None:
                    progress(_progress_event(probe, replayed, algorithm))
            algorithm.observe(
                [
                    (probe.point, probe.score(resolved_objective))
                    for probe, _replayed in batch
                ]
            )
    except (RunInterrupted, KeyboardInterrupt):
        journal.record_experiment_end(experiment_label, status="interrupted")
        journal.close("interrupted")
        interrupt = RunInterrupted(
            f"search interrupted after {len(outcome.probes)} of {budget} "
            f"probes — resume with: nucache-repro explore resume {journal.run_id}",
        )
        interrupt.run_id = journal.run_id  # type: ignore[attr-defined]
        raise interrupt from None
    except Exception as exc:
        journal.record_experiment_end(experiment_label, status="failed")
        journal.close("failed", error=repr(exc))
        raise
    finally:
        exec_context.set_journal(previous_journal)

    outcome.report = build_report(
        study, resolved_objective, algo, seed, budget, accesses, outcome.probes
    )
    write_report(outcome.report, report_path)
    journal.record_experiment_end(experiment_label, status="ok")
    journal.close("completed")
    return outcome


def _resolve_batch(
    proposed: List[Point],
    first_index: int,
    evaluator: Evaluator,
    transcript: Dict[int, Dict[str, Any]],
    outcome: ExploreOutcome,
) -> List[Tuple[ProbeResult, bool]]:
    """Split one proposed batch into replayed and evaluated probes.

    Probes whose index has a matching transcript record are rebuilt from
    the journal; the rest are evaluated through the scheduler as one
    batch.  A transcript record that disagrees with the re-proposed
    point means the study, space, or seed changed since the original
    run — that is an error, not a silent re-run.
    """
    replay: Dict[int, ProbeResult] = {}
    to_evaluate: List[Tuple[int, Point]] = []
    for offset, point in enumerate(proposed):
        index = first_index + offset
        record = transcript.get(index)
        if record is not None:
            if dict(record.get("params", {})) != dict(point):
                raise ExploreError(
                    f"journal replay mismatch at probe {index}: journal has "
                    f"{record.get('params')}, search re-proposed {dict(point)} "
                    "(study, space, or seed changed since the original run?)"
                )
            replay[index] = _probe_from_record(record)
        else:
            to_evaluate.append((index, point))

    evaluated: Dict[int, ProbeResult] = {}
    if to_evaluate:
        indices = [index for index, _point in to_evaluate]
        label = f"probes[{indices[0]}..{indices[-1]}]"
        results = evaluator.evaluate(
            [point for _index, point in to_evaluate], indices[0], label
        )
        # evaluate() numbers probes contiguously from first_index; remap
        # to the true indices (replayed probes may interleave).
        for (index, _point), probe in zip(to_evaluate, results):
            probe.index = index
            evaluated[index] = probe
            outcome.cached_jobs += probe.cached
            outcome.computed_jobs += probe.computed
    outcome.replayed += len(replay)

    batch: List[Tuple[ProbeResult, bool]] = []
    for offset in range(len(proposed)):
        index = first_index + offset
        if index in replay:
            batch.append((replay[index], True))
        else:
            batch.append((evaluated[index], False))
    return batch


def _progress_event(
    probe: ProbeResult, replayed: bool, algorithm: object
) -> Dict[str, object]:
    """The per-probe event dict handed to the progress hook."""
    return {
        "event": "probe",
        "index": probe.index,
        "params": dict(probe.point),
        "valid": probe.valid,
        "objective": probe.objective,
        "cached": probe.cached,
        "computed": probe.computed,
        "replayed": replayed,
    }


def load_search_settings(run_id: str) -> Dict[str, Any]:
    """Read a run's ``explore_start`` record and probe transcript.

    Returns a dict with the original search settings plus
    ``transcript`` (probe records by index) and ``run_id`` — everything
    :func:`resume_search` needs.  Raises if the run has no
    ``explore_start`` record (it was a plain experiment run) or if the
    registered study's space hash no longer matches the journal's.
    """
    summary = run_journal.find_run(run_id)
    records = run_journal.read_records(summary.path)
    start: Optional[Dict[str, Any]] = None
    transcript: Dict[int, Dict[str, Any]] = {}
    for record in records:
        kind = record.get("record")
        if kind == "explore_start":
            start = record
        elif kind == "probe":
            transcript[int(record["index"])] = record
    if start is None:
        raise ExploreError(
            f"run {summary.run_id} is not an exploration run "
            "(no explore_start record in its journal)"
        )
    study = get_study(str(start["study"]))
    if study.space.space_hash() != start.get("space_hash"):
        raise ExploreError(
            f"study {study.name!r} has changed since run {summary.run_id} "
            "(space hash mismatch); the journal cannot be replayed"
        )
    return {
        "run_id": summary.run_id,
        "study": study.name,
        "algo": str(start["algo"]),
        "seed": int(start["seed"]),
        "budget": int(start["budget"]),
        "objective": str(start["objective"]),
        "output": str(start.get("output") or ""),
        "transcript": transcript,
    }


def resume_search(
    run_id: str,
    output: Optional[Union[str, Path]] = None,
    progress: Optional[ProbeHook] = None,
) -> ExploreOutcome:
    """Resume an interrupted search from its journal.

    Journaled probes replay without evaluation; the remaining budget
    runs normally (with the result store additionally serving any job
    the interrupted batch had already settled).  Resuming a *completed*
    run is valid and cheap: the whole trajectory replays and the report
    is rewritten, byte-identical.
    """
    settings = load_search_settings(run_id)
    return run_search(
        study=settings["study"],
        algo=settings["algo"],
        budget=settings["budget"],
        seed=settings["seed"],
        objective=settings["objective"],
        output=output or (settings["output"] or None),
        transcript=settings["transcript"],
        resumed_from=settings["run_id"],
        progress=progress,
    )
