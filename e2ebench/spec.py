"""``BENCHMARK.json``: the one source of workload and metric declarations.

The runner reads every workload name, metric name, unit, direction and
bound from here, and :meth:`Spec.report` refuses to emit a metric the
file does not declare (or to leave out one it does).
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Mapping, Optional, Tuple

#: Repository root: the parent of this package.
ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
TOP_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
MAX_BOUND = 0.25


class SpecError(ValueError):
    """``BENCHMARK.json`` is malformed, or a report does not match it."""


@dataclass(frozen=True)
class Metric:
    """One declared metric; ``bound`` is ``None`` for per-layer metrics."""

    name: str
    unit: str
    better: str
    bound: Optional[float] = None


@dataclass(frozen=True)
class Spec:
    """The parsed, validated benchmark declaration."""

    run_seconds: int
    workloads: Tuple[Tuple[str, str], ...]
    end_to_end: Tuple[Metric, ...]
    per_layer: Tuple[Metric, ...]

    @property
    def workload_names(self) -> Tuple[str, ...]:
        """Declared workload names, in file order."""
        return tuple(name for name, _why in self.workloads)

    def metrics(self, layer: bool) -> Tuple[Metric, ...]:
        """The per-layer (``layer=True``) or end-to-end metrics."""
        return self.per_layer if layer else self.end_to_end

    def report(self, values: Mapping[str, float], layer: bool) -> Dict[str, Dict[str, object]]:
        """``{name: {"value", "unit"}}`` for exactly the declared metrics.

        Raises :class:`SpecError` on an undeclared, missing or
        non-finite metric, so nothing unexpected reaches the output.
        """
        declared = self.metrics(layer)
        names = {metric.name for metric in declared}
        extra = sorted(set(values) - names)
        missing = sorted(names - set(values))
        problems = [f"{label} metrics {found}"
                    for label, found in (("undeclared", extra), ("missing", missing)) if found]
        if problems:
            raise SpecError("; ".join(problems))
        report: Dict[str, Dict[str, object]] = {}
        for metric in declared:
            value = float(values[metric.name])
            if not math.isfinite(value):
                raise SpecError(f"{metric.name} is not finite: {value}")
            report[metric.name] = {"value": value, "unit": metric.unit}
        return report


def _metric(entry: object, with_bound: bool) -> Metric:
    keys = {"name", "unit", "better"} | ({"bound"} if with_bound else set())
    if not isinstance(entry, dict) or set(entry) != keys:
        raise SpecError(f"metric entry {entry!r} must have exactly the keys {sorted(keys)}")
    name, unit, better = entry["name"], entry["unit"], entry["better"]
    if not isinstance(name, str) or not NAME_RE.fullmatch(name):
        raise SpecError(f"bad metric name {name!r}")
    if not isinstance(unit, str) or not UNIT_RE.fullmatch(unit):
        raise SpecError(f"bad unit {unit!r} for {name}")
    if better not in ("lower", "higher"):
        raise SpecError(f"{name}: better must be 'lower' or 'higher', got {better!r}")
    bound = None
    if with_bound:
        bound = entry["bound"]
        if isinstance(bound, bool) or not isinstance(bound, (int, float)) or not (
            0 < bound <= MAX_BOUND
        ):
            raise SpecError(f"{name}: bound must be in (0, {MAX_BOUND}], got {bound!r}")
        bound = float(bound)
    return Metric(name, unit, better, bound)


def parse_spec(raw: Mapping[str, object]) -> Spec:
    """Validate a decoded ``BENCHMARK.json`` document."""
    if set(raw) != TOP_KEYS:
        raise SpecError(f"top-level keys must be exactly {sorted(TOP_KEYS)}")
    seconds = raw["run_seconds"]
    if isinstance(seconds, bool) or not isinstance(seconds, int) or not 1 <= seconds <= 60:
        raise SpecError(f"run_seconds must be a whole number in [1, 60], got {seconds!r}")
    workloads = raw["workloads"]
    if not isinstance(workloads, list) or not 2 <= len(workloads) <= 8:
        raise SpecError("need 2 to 8 workloads")
    pairs = []
    for entry in workloads:
        if not isinstance(entry, dict) or set(entry) != {"name", "why"}:
            raise SpecError(f"workload {entry!r} must have exactly 'name' and 'why'")
        name, why = entry["name"], entry["why"]
        if not isinstance(name, str) or not NAME_RE.fullmatch(name):
            raise SpecError(f"bad workload name {name!r}")
        if not isinstance(why, str) or not why or len(why) > 200 or "\n" in why:
            raise SpecError(f"workload {name}: 'why' must be one line of at most 200 characters")
        pairs.append((name, why))
    end_to_end = raw["end_to_end"]
    per_layer = raw["per_layer"]
    if not isinstance(end_to_end, list) or not 1 <= len(end_to_end) <= 16:
        raise SpecError("need 1 to 16 end-to-end metrics")
    if not isinstance(per_layer, list) or not 1 <= len(per_layer) <= 128:
        raise SpecError("need 1 to 128 per-layer metrics")
    e2e = tuple(_metric(entry, with_bound=True) for entry in end_to_end)
    layer = tuple(_metric(entry, with_bound=False) for entry in per_layer)
    names = [name for name, _ in pairs] + [m.name for m in e2e + layer]
    duplicates = sorted({name for name in names if names.count(name) > 1})
    if duplicates:
        raise SpecError(f"names used more than once: {duplicates}")
    setup = next((m for m in e2e if m.name == "setup_s"), None)
    if setup is None or setup.unit != "s" or setup.better != "lower":
        raise SpecError("end_to_end must declare setup_s in s, better lower")
    return Spec(seconds, tuple(pairs), e2e, layer)


def load_spec(path: Path = SPEC_PATH) -> Spec:
    """Read and validate ``BENCHMARK.json``."""
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise SpecError(f"cannot read {path.name}: {exc}") from None
    if not isinstance(raw, dict):
        raise SpecError(f"{path.name} must hold a JSON object")
    return parse_spec(raw)
