"""Experiment result container and rendering helpers.

Every experiment driver returns an :class:`ExperimentResult`: an
identifier, a title, a list of uniform row dicts and free-form notes.
The same object feeds the CLI's text tables, the claims tests
(``tests/test_claims.py``) and EXPERIMENTS.md.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.common.errors import ExperimentError

#: Environment variable scaling experiment trace lengths (e.g. 0.5 for
#: half-length traces, 0.05 for a quick ``run all``).
SCALE_ENV_VAR = "REPRO_SCALE"


def sim_grid(jobs: Sequence["object"], label: Optional[str] = None) -> List["object"]:
    """Resolve a batch of :class:`~repro.exec.job.SimJob` specs.

    The grid-shaped drivers build their whole (benchmark x variant)
    batch up front and submit it here: results come back in submission
    order, cache-first and parallel on miss, under the process-wide
    execution defaults (``run --jobs N --no-cache``, ``REPRO_JOBS``).
    ``label`` names the batch in the run journal.
    """
    from repro.exec import run_jobs

    return run_jobs(jobs, label=label or f"grid:{len(jobs)}jobs")


def scaled_accesses(default: int) -> int:
    """Apply the ``REPRO_SCALE`` environment scaling to a trace length."""
    raw = os.environ.get(SCALE_ENV_VAR)
    if raw is None:
        return default
    try:
        scale = float(raw)
    except ValueError:
        raise ExperimentError(f"{SCALE_ENV_VAR} must be a float, got {raw!r}") from None
    if not math.isfinite(scale) or scale <= 0:
        raise ExperimentError(
            f"{SCALE_ENV_VAR} must be a positive finite number, got {raw!r}"
        )
    return max(10_000, int(default * scale))


@dataclass
class ExperimentResult:
    """Rows plus metadata for one table/figure reproduction."""

    experiment_id: str
    title: str
    rows: List[Dict[str, object]]
    notes: str = ""
    summary: Dict[str, float] = field(default_factory=dict)

    def column_names(self) -> List[str]:
        """Union of row keys, in first-appearance order."""
        names: List[str] = []
        for row in self.rows:
            for key in row:
                if key not in names:
                    names.append(key)
        return names

    def column(self, name: str) -> List[object]:
        """All values of one column (missing cells become ``None``)."""
        return [row.get(name) for row in self.rows]

    def to_text(self) -> str:
        """Render as an aligned text table with title and notes."""
        lines = [f"== {self.experiment_id}: {self.title} =="]
        lines.append(render_table(self.rows))
        if self.summary:
            parts = ", ".join(f"{key}={_fmt(value)}" for key, value in self.summary.items())
            lines.append(f"summary: {parts}")
        if self.notes:
            lines.append(self.notes)
        return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def render_table(rows: Sequence[Dict[str, object]],
                 columns: Optional[Sequence[str]] = None) -> str:
    """Render row dicts as an aligned, pipe-separated text table."""
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = []
        for row in rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
    cells = [[_fmt(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(str(col)), *(len(line[index]) for line in cells))
        for index, col in enumerate(columns)
    ]
    header = " | ".join(str(col).ljust(width) for col, width in zip(columns, widths))
    rule = "-+-".join("-" * width for width in widths)
    body = [
        " | ".join(cell.ljust(width) for cell, width in zip(line, widths))
        for line in cells
    ]
    return "\n".join([header, rule] + body)
