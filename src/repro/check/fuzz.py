"""Deterministic fuzz harness for the differential oracle.

Drives seeded random access streams through
:class:`~repro.check.oracle.DifferentialHarness` across a policy ×
geometry × DeliWay-split grid.  Every case is fully determined by its
:class:`FuzzCase` (the stream is derived from the case's seed via
:func:`repro.common.rng.make_rng`), so any failure is replayable from
its parameters alone.

When a case fails, the failing stream is shrunk ddmin-style to a
minimal reproducer and written as JSON under
``$REPRO_CACHE_DIR/check/`` — :func:`load_reproducer` +
:func:`replay_stream` re-run it exactly.  The ``nucache-repro check``
CLI subcommand (see :mod:`repro.cli`) is a thin wrapper over
:func:`run_check`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple

from repro.check.oracle import DifferentialHarness, make_reference
from repro.common.config import CacheGeometry, NUcacheConfig, SystemConfig
from repro.common.errors import InvariantViolation, ReproError
from repro.common.rng import DEFAULT_SEED, make_rng
from repro.exec.stores import default_store_dir
from repro.nucache.organization import NUCache
from repro.nucache.selection import SELECTORS
from repro.sim.policies import make_llc

#: One access of a fuzz stream: ``(block_addr, core, pc, is_write)``.
Access = Tuple[int, int, int, bool]

#: Policy families covered by ``--quick`` (one per optimization-relevant
#: code path: plain-LRU inline, dueling, RRIP, SHiP, SDBP, NUcache,
#: partitioned NUcache).
QUICK_POLICIES = ("lru", "dip", "srrip", "ship", "sdbp", "nucache", "nucache-ucp")

#: Additional families exercised by a full run.
EXTRA_POLICIES = (
    "fifo", "lip", "nru", "plru", "bip", "brrip", "drrip", "tadip",
    "ship-bypass", "random",
)

#: ``(sets, ways)`` grids: quick keeps two shapes, full adds larger ones.
QUICK_GEOMETRIES = ((16, 4), (8, 8))
FULL_GEOMETRIES = ((16, 4), (8, 8), (32, 8), (16, 16))

#: NUcache configurations besides the defaults, one case each for
#: ``nucache`` and ``nucache-ucp`` on the 8x8 geometry: the lru DeliWay
#: ablation, sampled profiling, a history small enough to pop, and
#: every selector other than the default greedy one.
NUCACHE_VARIANTS = (
    {"deli_replacement": "lru"},
    {"sample_period": 2},
    {"history_capacity": 8},
    *({"selector": name} for name in SELECTORS if name != "greedy"),
)

#: Cap on oracle replays spent shrinking one failing stream.
SHRINK_BUDGET = 400


@dataclass(frozen=True)
class FuzzCase:
    """One deterministic oracle run: policy + geometry + stream parameters."""

    policy: str
    sets: int = 16
    ways: int = 8
    deli_ways: int = 2
    cores: int = 2
    accesses: int = 2000
    seed: int = DEFAULT_SEED
    footprint: int = 0  # 0 = 3x the cache capacity
    pcs: int = 12
    write_fraction: float = 0.25
    # NUcache configuration (see :func:`system_config`).
    deli_replacement: str = "fifo"
    sample_period: int = 1
    history_capacity: int = 64
    selector: str = "greedy"

    def describe(self) -> str:
        """One-line label for progress output and reproducer names.

        NUcache settings appear only when they differ from the defaults,
        so a default case's label, and the stream seeded from it, stay
        as they were before those settings existed.
        """
        split = f" deli={self.deli_ways}" if self.policy.startswith("nucache") else ""
        variant = "".join(
            f" {name}={getattr(self, name)}"
            for name, default in _NUCACHE_DEFAULTS
            if getattr(self, name) != default
        )
        return (
            f"{self.policy} {self.sets}x{self.ways}{split} cores={self.cores} "
            f"n={self.accesses} seed={self.seed}{variant}"
        )

    def to_dict(self) -> dict:
        """JSON representation for reproducer files."""
        return {
            "policy": self.policy, "sets": self.sets, "ways": self.ways,
            "deli_ways": self.deli_ways, "cores": self.cores,
            "accesses": self.accesses, "seed": self.seed,
            "footprint": self.footprint, "pcs": self.pcs,
            "write_fraction": self.write_fraction,
            "deli_replacement": self.deli_replacement,
            "sample_period": self.sample_period,
            "history_capacity": self.history_capacity,
            "selector": self.selector,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FuzzCase":
        """Inverse of :meth:`to_dict`."""
        return cls(**payload)


#: ``(field, default)`` of the NUcache settings a case may vary.
_NUCACHE_DEFAULTS = tuple(
    (name, FuzzCase.__dataclass_fields__[name].default)
    for name in ("deli_replacement", "sample_period", "history_capacity", "selector")
)


@dataclass
class FuzzFailure:
    """A case whose stream diverged, with its minimal reproducer."""

    case: FuzzCase
    stream: List[Access]
    violation: InvariantViolation
    access_index: int
    reproducer_path: Optional[Path] = None
    corrupt_after: Optional[int] = None


@dataclass
class CheckReport:
    """Outcome of one :func:`run_check` sweep."""

    cases: int = 0
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether every case completed without divergence."""
        return not self.failures


def system_config(case: FuzzCase) -> SystemConfig:
    """The (LLC-focused) system config a fuzz case runs against.

    Epochs are kept very short so selection/rotation churn happens many
    times within even a quick stream — epoch boundaries are where slot
    remaps and retention-set changes can corrupt state.
    """
    block = 64
    return SystemConfig(
        num_cores=case.cores,
        l1=CacheGeometry(size_bytes=512, block_bytes=block, ways=2),
        l2=CacheGeometry(size_bytes=2048, block_bytes=block, ways=4),
        llc=CacheGeometry(
            size_bytes=case.sets * case.ways * block, block_bytes=block,
            ways=case.ways,
        ),
        nucache=NUcacheConfig(
            deli_ways=case.deli_ways,
            num_candidate_pcs=8,
            epoch_misses=150,
            history_capacity=case.history_capacity,
            max_selected_pcs=4,
            selector=case.selector,
            deli_replacement=case.deli_replacement,
            sample_period=case.sample_period,
        ),
    )


def generate_stream(case: FuzzCase) -> List[Access]:
    """The case's deterministic access stream (seed-derived)."""
    rng = make_rng(case.seed, f"fuzz:{case.describe()}")
    count = case.accesses
    footprint = case.footprint or 3 * case.sets * case.ways
    blocks = rng.integers(0, footprint, size=count)
    pcs = rng.integers(0, case.pcs, size=count)
    cores = rng.integers(0, case.cores, size=count)
    writes = rng.random(count) < case.write_fraction
    return [
        (int(blocks[i]), int(cores[i]), 0x400000 + int(pcs[i]) * 4, bool(writes[i]))
        for i in range(count)
    ]


def build_harness(case: FuzzCase) -> DifferentialHarness:
    """Fresh kernel + reference + harness for one (re)play."""
    config = system_config(case)
    kernel = make_llc(case.policy, config, seed=case.seed)
    reference = make_reference(case.policy, config, seed=case.seed)
    return DifferentialHarness(kernel, reference)


def corrupt_kernel(llc) -> str:
    """Deliberately corrupt the kernel state (``--force-violation``).

    For NUcache with at least two resident DeliWay lines, swaps two
    retention sequence numbers (a FIFO-order corruption only the
    sanitizer can see).  Otherwise tampers with the hit counters, which
    both the stats conservation check and the counter diff catch.
    """
    if isinstance(llc, NUCache):
        for nu_set in llc.sets:
            if len(nu_set.deli) >= 2:
                entries = list(nu_set.deli.values())
                entries[0].seq, entries[1].seq = entries[1].seq, entries[0].seq
                return "swapped DeliWay retention sequence numbers"
    llc.stats.total.hits += 1
    return "tampered with the total hit counter"


def replay_stream(
    case: FuzzCase,
    stream: Sequence[Access],
    corrupt_after: Optional[int] = None,
    corruptor: Callable = corrupt_kernel,
) -> Optional[Tuple[InvariantViolation, int]]:
    """Replay a stream through a fresh harness.

    Returns ``(violation, access_index)`` if the oracle diverged, else
    ``None``.  When ``corrupt_after`` is given, ``corruptor`` is applied
    to the kernel before the access at that index (clamped to the
    stream's end), which forces a detectable violation.
    """
    harness = build_harness(case)
    point = None
    if corrupt_after is not None and stream:
        point = min(corrupt_after, len(stream) - 1)
    for index, (block_addr, core, pc, is_write) in enumerate(stream):
        if index == point:
            corruptor(harness.kernel)
        try:
            harness.access(block_addr, core, pc, is_write)
        except InvariantViolation as violation:
            return violation, index
    return None


def shrink_stream(
    stream: Sequence[Access],
    still_fails: Callable[[Sequence[Access]], bool],
    budget: int = SHRINK_BUDGET,
) -> List[Access]:
    """ddmin-style reduction: drop chunks while the failure reproduces."""
    current = list(stream)
    spent = 0
    chunk = max(1, len(current) // 2)
    while chunk >= 1 and spent < budget:
        start = 0
        reduced = False
        while start < len(current) and spent < budget:
            candidate = current[:start] + current[start + chunk:]
            spent += 1
            if candidate and still_fails(candidate):
                current = candidate
                reduced = True
            else:
                start += chunk
        if chunk == 1:
            if not reduced:
                break
        else:
            chunk //= 2
    return current


def reproducer_dir(base: Optional[Path] = None) -> Path:
    """Directory for reproducer files (``$REPRO_CACHE_DIR/check/``)."""
    directory = (base or default_store_dir()) / "check"
    directory.mkdir(parents=True, exist_ok=True)
    return directory


def write_reproducer(failure: FuzzFailure, base: Optional[Path] = None) -> Path:
    """Persist a failing case + minimal stream as a JSON reproducer."""
    payload = {
        "schema": 1,
        "case": failure.case.to_dict(),
        "stream": [
            [block_addr, core, pc, int(is_write)]
            for block_addr, core, pc, is_write in failure.stream
        ],
        "corrupt_after": failure.corrupt_after,
        "access_index": failure.access_index,
        "violation": failure.violation.to_dict(),
    }
    digest = hashlib.sha256(
        json.dumps([payload["case"], payload["stream"]], sort_keys=True).encode()
    ).hexdigest()[:12]
    path = reproducer_dir(base) / (
        f"repro-{failure.case.policy}-s{failure.case.seed}-{digest}.json"
    )
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    failure.reproducer_path = path
    return path


def load_reproducer(path: Path) -> Tuple[FuzzCase, List[Access], Optional[int]]:
    """Load a reproducer file back into replayable form."""
    try:
        payload = json.loads(Path(path).read_text())
        case = FuzzCase.from_dict(payload["case"])
        stream = [
            (int(b), int(c), int(p), bool(w)) for b, c, p, w in payload["stream"]
        ]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ReproError(f"unreadable reproducer file {path}: {exc!r}") from exc
    return case, stream, payload.get("corrupt_after")


def run_case(
    case: FuzzCase,
    shrink: bool = True,
    store_base: Optional[Path] = None,
    corrupt_after: Optional[int] = None,
) -> Optional[FuzzFailure]:
    """Run one case; on divergence, shrink it and write a reproducer."""
    stream = generate_stream(case)
    outcome = replay_stream(case, stream, corrupt_after)
    if outcome is None:
        return None
    violation, index = outcome
    minimal = list(stream[: index + 1])
    if shrink:
        minimal = shrink_stream(
            minimal,
            lambda candidate: replay_stream(case, candidate, corrupt_after)
            is not None,
        )
        reduced = replay_stream(case, minimal, corrupt_after)
        if reduced is not None:  # keep the violation matching the stream
            violation, index = reduced
    failure = FuzzFailure(
        case=case,
        stream=minimal,
        violation=violation,
        access_index=index,
        corrupt_after=corrupt_after,
    )
    write_reproducer(failure, store_base)
    return failure


def default_grid(
    quick: bool = False,
    seed: int = DEFAULT_SEED,
    policies: Optional[Sequence[str]] = None,
    accesses: Optional[int] = None,
) -> List[FuzzCase]:
    """The policy × geometry × DeliWay-split case grid.

    ``quick`` bounds the sweep for CI (fewer geometries, shorter
    streams, the seven :data:`QUICK_POLICIES` families); the full grid
    covers every policy with a reference model.  Both end with one case
    per :data:`NUCACHE_VARIANTS` entry for each chosen NUcache family.
    """
    chosen = tuple(policies) if policies else (
        QUICK_POLICIES if quick else QUICK_POLICIES + EXTRA_POLICIES
    )
    geometries = QUICK_GEOMETRIES if quick else FULL_GEOMETRIES
    stream_length = accesses or (1200 if quick else 4000)
    cases: List[FuzzCase] = []
    for policy in chosen:
        for sets, ways in geometries:
            if policy.startswith("nucache"):
                splits = (2,) if quick else tuple(
                    sorted({1, 2, ways // 2} - {0})
                )
                for deli_ways in splits:
                    if ways - deli_ways < 2:  # partitioned needs a way per core
                        continue
                    cases.append(FuzzCase(
                        policy=policy, sets=sets, ways=ways,
                        deli_ways=deli_ways, accesses=stream_length, seed=seed,
                    ))
            else:
                cases.append(FuzzCase(
                    policy=policy, sets=sets, ways=ways, deli_ways=1,
                    accesses=stream_length, seed=seed,
                ))
    for policy in chosen:
        if policy.startswith("nucache"):
            cases.extend(
                FuzzCase(
                    policy=policy, sets=8, ways=8, deli_ways=2,
                    accesses=stream_length, seed=seed, **variant,
                )
                for variant in NUCACHE_VARIANTS
            )
    return cases


def run_check(
    quick: bool = False,
    seed: int = DEFAULT_SEED,
    policies: Optional[Sequence[str]] = None,
    accesses: Optional[int] = None,
    force_violation: bool = False,
    progress: Optional[Callable[[str], None]] = None,
) -> CheckReport:
    """Run the fuzz grid; the engine behind ``nucache-repro check``.

    ``force_violation`` corrupts the kernel partway through the first
    case to prove the pipeline end-to-end (detection, shrinking,
    reproducer emission) — it is expected to produce exactly one
    failure.
    """
    report = CheckReport()
    for number, case in enumerate(
        default_grid(quick=quick, seed=seed, policies=policies, accesses=accesses)
    ):
        corrupt_after = None
        if force_violation and number == 0:
            corrupt_after = min(64, max(0, case.accesses // 2))
        failure = run_case(case, corrupt_after=corrupt_after)
        report.cases += 1
        if progress is not None:
            status = "DIVERGED" if failure else "ok"
            progress(f"  [{report.cases:3d}] {case.describe():<48s} {status}")
        if failure is not None:
            report.failures.append(failure)
    return report
