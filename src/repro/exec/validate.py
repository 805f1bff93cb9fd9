"""Result integrity checks and the quarantine contract.

Reproduction credibility rests on never serving a bad result — neither a
freshly computed one from a sick worker nor a cached one whose bytes
rotted on disk.  This module centralizes the invariants every
:class:`~repro.sim.engine.SimResult` must satisfy:

* every counter (instructions, cycles, LLC accesses/misses, per-level
  counts) is a non-negative integer;
* LLC hits + misses equals LLC accesses (``level_counts`` bookkeeping is
  internally consistent with the derived fields);
* IPC and MPKI are finite, non-negative floats;
* the core list matches the job spec (one core per member for workload
  jobs, exactly one for single jobs) with distinct, well-formed ids;
* LLC occupancy refers only to known cores.

A probe job's :class:`~repro.sim.engine.ProbeResult` has its own
payload checks: int PCs with positive miss counts, and non-negative int
Next-Use distances.

:func:`validate_result` returns the violations as strings (empty list ==
valid); :func:`check_result` raises :class:`ValidationError`.  The
scheduler applies these checks after every simulation, and the store
applies them on every read — a failing entry is *quarantined* (moved
aside for post-mortem, never deleted, never served).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, List, Optional

from repro.common.errors import ValidationError
from repro.sim.engine import ProbeResult

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.exec.job import JobResult, SimJob

#: ``level_counts`` key for accesses resolved at the LLC (hits).
_LEVEL_LLC = "llc"
#: ``level_counts`` key for accesses that missed all the way to memory.
_LEVEL_MEMORY = "memory"


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_count(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _is_finite_nonneg(value: object) -> bool:
    return isinstance(value, float) and math.isfinite(value) and value >= 0.0


def _probe_violations(result: ProbeResult) -> List[str]:
    """Payload violations of one baseline probe result."""
    misses = result.misses
    if not isinstance(misses, dict):
        return ["probe misses are not a PC -> count map"]
    violations = [
        f"probe PC {pc!r} with {count!r} misses: need an int PC, a positive count"
        for pc, count in misses.items()
        if not (_is_int(pc) and _is_count(count) and count > 0)
    ]
    distances = result.distances
    if not isinstance(distances, list) or not all(map(_is_count, distances)):
        violations.append("probe distances must be non-negative ints")
    return violations


def validate_result(
    result: "JobResult", job: Optional["SimJob"] = None
) -> List[str]:
    """Invariant violations of ``result`` (empty list means valid).

    When ``job`` is given, the result is additionally checked for
    consistency against its spec (result type, core count, workload
    names).
    """
    if job is not None and (job.kind == "probe") != isinstance(result, ProbeResult):
        return [f"{job.kind} job got a {type(result).__name__}"]
    if isinstance(result, ProbeResult):
        return _probe_violations(result)
    violations: List[str] = []

    cores = getattr(result, "cores", None)
    if not isinstance(cores, list) or not cores:
        return ["result has no cores"]

    seen_ids = set()
    for core in cores:
        tag = f"core {getattr(core, 'core_id', '?')}"
        if not _is_count(core.core_id):
            violations.append(f"{tag}: core_id is not a non-negative int")
        elif core.core_id in seen_ids:
            violations.append(f"{tag}: duplicate core_id")
        else:
            seen_ids.add(core.core_id)
        for name in ("instructions", "cycles", "llc_accesses", "llc_misses"):
            if not _is_count(getattr(core, name)):
                violations.append(f"{tag}: {name} must be a non-negative int")
        for name in ("ipc", "mpki"):
            if not _is_finite_nonneg(float(getattr(core, name))):
                violations.append(f"{tag}: {name} must be finite and >= 0")
        counts = core.level_counts
        if not isinstance(counts, dict) or not all(
            _is_count(value) for value in counts.values()
        ):
            violations.append(f"{tag}: level_counts must be non-negative ints")
            continue
        if _is_count(core.llc_accesses) and _is_count(core.llc_misses):
            if core.llc_misses > core.llc_accesses:
                violations.append(
                    f"{tag}: llc_misses ({core.llc_misses}) exceeds "
                    f"llc_accesses ({core.llc_accesses})"
                )
            hits = counts.get(_LEVEL_LLC)
            misses = counts.get(_LEVEL_MEMORY)
            if hits is not None and misses is not None:
                if hits + misses != core.llc_accesses:
                    violations.append(
                        f"{tag}: llc hits ({hits}) + misses ({misses}) != "
                        f"llc_accesses ({core.llc_accesses})"
                    )
                if misses != core.llc_misses:
                    violations.append(
                        f"{tag}: memory count ({misses}) != "
                        f"llc_misses ({core.llc_misses})"
                    )

    occupancy = getattr(result, "llc_occupancy_by_core", {}) or {}
    for core_id, blocks in occupancy.items():
        if core_id not in seen_ids:
            violations.append(f"occupancy names unknown core {core_id}")
        if not _is_count(blocks):
            violations.append(f"occupancy for core {core_id} is negative")

    if job is not None:
        expected = job.expected_cores
        if len(cores) != expected:
            violations.append(
                f"job expects {expected} core(s), result has {len(cores)}"
            )
        if str(result.policy) != job.policy:
            violations.append(
                f"job policy {job.policy!r} != result policy {result.policy!r}"
            )
        for core, member in zip(cores, job.members):
            if core.workload != member:
                violations.append(
                    f"core {core.core_id} ran {core.workload!r}, "
                    f"job expected {member!r}"
                )

    return violations


def check_result(result: "JobResult", job: Optional["SimJob"] = None) -> "JobResult":
    """Return ``result`` if valid, else raise :class:`ValidationError`."""
    violations = validate_result(result, job)
    if violations:
        raise ValidationError(
            "invalid simulation result: " + "; ".join(violations[:5])
        )
    return result
