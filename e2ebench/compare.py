"""Compare two ``sets`` payloads per (workload, end-to-end metric).

A comparator beside :mod:`repro.bench.compare`, not an extension of it:
it imports that module's exit codes, the payload I/O of
:mod:`repro.bench.suite` (``save_payload``/``load_payload``) and its
timestamp-free environment block, but its report, rendering and schema
checks are its own and mirror that module's.  Folding the quartile
verdict into :mod:`repro.bench.compare` would remove the mirror.
Directions and bounds come from ``BENCHMARK.json``.  Each row compares
the per-set values of the two payloads (at least :data:`MIN_SETS`
each) by median and quartiles:

* ``unresolved`` — either side's quartile spread (Q3 - Q1, as a share
  of its median) is wider than the bound, unless every candidate set
  reads better than every baseline set;
* ``regressed`` — the candidate median is worse than the baseline
  median by more than the bound;
* ``ok`` — otherwise.

Exit codes: 0 every row ok; 1 a row regressed or is unresolved, or the
candidate has incorrect sets; 2 the payloads are not comparable.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

from e2ebench.spec import Spec
from repro.bench.compare import EXIT_OK, EXIT_REGRESSION, EXIT_SCHEMA_MISMATCH
from repro.bench.suite import _environment

PAYLOAD_SCHEMA = 1
PAYLOAD_MODE = "e2e"
MIN_SETS = 3


def new_payload(seconds: float) -> Dict[str, Any]:
    """An empty payload for :func:`run.cmd_sets` to fill."""
    return {
        "schema_version": PAYLOAD_SCHEMA,
        "mode": PAYLOAD_MODE,
        "seconds": seconds,
        "workloads": {},
        "layers": {},
        "environment": _environment(),
    }


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3) as :func:`statistics.quantiles` gives them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(baseline: Sequence[float], candidate: Sequence[float], better: str,
            bound: float) -> Tuple[str, float, float]:
    """``(verdict, change, spread)`` for one metric on one workload.

    ``change`` is how much worse the candidate median is, as a share of
    the baseline median (negative: better); ``spread`` is the wider of
    the two sides' quartile spreads.
    """
    sign = 1.0 if better == "lower" else -1.0
    b_q1, b_med, b_q3 = quartiles(baseline)
    c_q1, c_med, c_q3 = quartiles(candidate)
    change = sign * (c_med - b_med) / b_med
    spread = max((b_q3 - b_q1) / b_med, (c_q3 - c_q1) / c_med)
    all_better = all(sign * (c - b) < 0 for c in candidate for b in baseline)
    if all_better:
        return "ok", change, spread
    if spread > bound:
        return "unresolved", change, spread
    if change > bound:
        return "regressed", change, spread
    return "ok", change, spread


@dataclass
class Row:
    """One (workload, metric) comparison."""

    workload: str
    metric: str
    unit: str
    baseline: float
    candidate: float
    change: float
    spread: float
    bound: float
    verdict: str


@dataclass
class Report:
    """Outcome of :func:`compare_payloads`."""

    exit_code: int
    rows: List[Row] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)

    def render(self) -> str:
        """The table the ``compare`` command prints."""
        lines = [f"error: {message}" for message in self.errors]
        if self.rows:
            lines.append(f"{'workload':<10} {'metric':<12} {'baseline':>10} {'candidate':>10} "
                         f"{'change':>8} {'spread':>7} {'bound':>6}  verdict")
            for row in self.rows:
                lines.append(
                    f"{row.workload:<10} {row.metric:<12} {row.baseline:>10.4g} "
                    f"{row.candidate:>10.4g} {row.change:>+8.1%} {row.spread:>7.1%} "
                    f"{row.bound:>6.0%}  {row.verdict}"
                )
        lines.append({
            EXIT_OK: "OK: every metric within its bound on every workload",
            EXIT_REGRESSION: "FAIL: a metric regressed or is unresolved, or outputs were wrong",
            EXIT_SCHEMA_MISMATCH: "FAIL: payloads are not comparable",
        }[self.exit_code])
        return "\n".join(lines)


def _sets(payload: Dict[str, Any], workload: str) -> List[Dict[str, Any]]:
    return list((payload.get("workloads") or {}).get(workload) or [])


def _schema_errors(baseline: Dict[str, Any], candidate: Dict[str, Any], spec: Spec) -> List[str]:
    errors = []
    for key in ("schema_version", "mode", "seconds"):
        if baseline.get(key) != candidate.get(key):
            errors.append(f"{key} mismatch: baseline={baseline.get(key)!r} "
                          f"candidate={candidate.get(key)!r}")
    if baseline.get("mode") != PAYLOAD_MODE:
        errors.append(f"not an {PAYLOAD_MODE} payload (mode={baseline.get('mode')!r})")
    names = {metric.name for metric in spec.end_to_end}
    for side, payload in (("baseline", baseline), ("candidate", candidate)):
        for workload in spec.workload_names:
            sets = _sets(payload, workload)
            if len(sets) < MIN_SETS:
                errors.append(f"{side} has {len(sets)} sets of {workload}; need {MIN_SETS}")
            elif any(set(entry.get("metrics", {})) != names for entry in sets):
                errors.append(f"{side} {workload}: sets do not carry exactly {sorted(names)}")
            elif side == "baseline" and not all(entry.get("correct") for entry in sets):
                errors.append(f"baseline {workload} has incorrect sets")
    return errors


def compare_payloads(baseline: Dict[str, Any], candidate: Dict[str, Any], spec: Spec) -> Report:
    """Compare two ``sets`` payloads; see the module docstring."""
    errors = _schema_errors(baseline, candidate, spec)
    if errors:
        return Report(EXIT_SCHEMA_MISMATCH, errors=errors)
    report = Report(EXIT_OK)
    for workload in spec.workload_names:
        b_sets, c_sets = _sets(baseline, workload), _sets(candidate, workload)
        if not all(entry.get("correct") for entry in c_sets):
            report.errors.append(f"candidate {workload} has incorrect sets")
        for metric in spec.end_to_end:
            b_values = [float(entry["metrics"][metric.name]) for entry in b_sets]
            c_values = [float(entry["metrics"][metric.name]) for entry in c_sets]
            outcome, change, spread = verdict(b_values, c_values, metric.better, metric.bound)
            report.rows.append(Row(
                workload, metric.name, metric.unit, statistics.median(b_values),
                statistics.median(c_values), change, spread, float(metric.bound), outcome,
            ))
    if report.errors or any(row.verdict != "ok" for row in report.rows):
        report.exit_code = EXIT_REGRESSION
    return report
