"""Simulation job specs: frozen, hashable, content-addressed.

A :class:`SimJob` is a complete description of one deterministic
simulation — everything :func:`repro.sim.runner.run_workload`,
:func:`~repro.sim.runner.run_single` or
:func:`~repro.sim.runner.run_probe` needs to reproduce it bit-for-bit.
Because the simulator is a pure function of this spec, the job's content
hash (:meth:`SimJob.key`) can address a persistent result store: two
invocations that build the same job get the same result without
re-simulating.

Keys are versioned with :data:`ENGINE_VERSION`; bump it whenever a
change to the simulator alters results for an unchanged spec, and every
stale store entry is invalidated at once (old versions live in separate
subdirectories the ``cache prune``/``clear`` ops can sweep).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple, Union

from repro.common.config import paper_llc_geometry
from repro.common.errors import ConfigError, ExecError
from repro.sim.engine import ProbeResult, SimResult

#: Bump when simulator semantics change so stored results are invalidated.
ENGINE_VERSION = 1

#: What a job resolves to: a probe job's :class:`ProbeResult`, else a
#: :class:`SimResult`.
JobResult = Union[SimResult, ProbeResult]

#: Scalar types allowed in NUcache overrides (must survive a JSON round
#: trip exactly for keys to be stable).
_SCALAR_TYPES = (bool, int, float, str)

_KINDS = ("workload", "single", "probe")


def _normalized_overrides(
    overrides: Dict[str, object]
) -> Tuple[Tuple[str, object], ...]:
    for name, value in overrides.items():
        if not isinstance(value, _SCALAR_TYPES):
            raise ExecError(
                f"override {name}={value!r} is not a scalar; jobs only "
                f"accept {', '.join(t.__name__ for t in _SCALAR_TYPES)}"
            )
    return tuple(sorted(overrides.items()))


@dataclass(frozen=True)
class SimJob:
    """One simulation, fully specified.

    Attributes:
        kind: ``"workload"`` (one trace per member against a shared LLC
            sized for ``len(members)`` cores), ``"single"`` (an alone
            run: one benchmark monopolizing an LLC sized for
            ``capacity_cores`` cores) or ``"probe"`` (the baseline probe
            of :func:`repro.sim.runner.run_probe`, whose result is a
            :class:`~repro.sim.engine.ProbeResult`).
        members: benchmark names, one per core (exactly one for
            ``"single"`` and ``"probe"`` jobs).
        policy: LLC policy name (see :func:`repro.sim.policies.make_llc`).
        accesses: trace length per core.
        seed: root RNG seed.
        warmup_fraction: fraction of each trace used to warm caches.
        prefetcher: per-core prefetcher name, ``"none"`` to disable.
        memory_model: ``"fixed"`` or ``"bandwidth"`` (workload jobs only).
        capacity_cores: single jobs: core count the LLC is sized for,
            or a power-of-two fraction of one (0.5: a 128 KB LLC).
        overrides: sorted ``(name, value)`` NUcache config overrides.
    """

    members: Tuple[str, ...]
    policy: str
    accesses: int
    seed: int
    kind: str = "workload"
    warmup_fraction: float = 0.25
    prefetcher: str = "none"
    memory_model: str = "fixed"
    capacity_cores: Union[int, float] = 1
    overrides: Tuple[Tuple[str, object], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ExecError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if not self.members:
            raise ExecError("a job needs at least one benchmark member")
        if self.kind != "workload" and len(self.members) != 1:
            raise ExecError(
                f"{self.kind} jobs take exactly one member, got {self.members!r}"
            )
        if self.accesses <= 0:
            raise ExecError(f"accesses must be positive, got {self.accesses}")
        capacity = self.capacity_cores
        if isinstance(capacity, float) and capacity.is_integer():
            capacity = int(capacity)  # keeps the keys of integral jobs
        try:
            paper_llc_geometry(capacity)
        except ConfigError as exc:
            raise ExecError(f"capacity_cores={capacity!r}: {exc}") from None
        object.__setattr__(self, "capacity_cores", capacity)
        # Normalize so construction order of overrides never changes the key.
        object.__setattr__(self, "members", tuple(self.members))
        object.__setattr__(
            self, "overrides", tuple(sorted(tuple(pair) for pair in self.overrides))
        )

    # ------------------------------------------------------------------
    # Constructors mirroring the runner's public helpers
    # ------------------------------------------------------------------

    @classmethod
    def workload(
        cls,
        members: Sequence[str],
        policy: str,
        accesses: int,
        seed: Optional[int] = None,
        warmup_fraction: Optional[float] = None,
        prefetcher: str = "none",
        memory_model: str = "fixed",
        **overrides: object,
    ) -> "SimJob":
        """Job equivalent of :func:`repro.sim.runner.run_workload`."""
        from repro.common.rng import DEFAULT_SEED
        from repro.sim.runner import DEFAULT_WARMUP_FRACTION

        return cls(
            members=tuple(members),
            policy=policy,
            accesses=accesses,
            seed=DEFAULT_SEED if seed is None else seed,
            kind="workload",
            warmup_fraction=(
                DEFAULT_WARMUP_FRACTION if warmup_fraction is None else warmup_fraction
            ),
            prefetcher=prefetcher,
            memory_model=memory_model,
            overrides=_normalized_overrides(overrides),
        )

    @classmethod
    def mix(
        cls,
        mix_name: str,
        policy: str,
        accesses: int,
        seed: Optional[int] = None,
        **kwargs: object,
    ) -> "SimJob":
        """Job equivalent of :func:`repro.sim.runner.run_mix`."""
        from repro.workloads.mixes import mix_members

        return cls.workload(mix_members(mix_name), policy, accesses, seed, **kwargs)

    @classmethod
    def single(
        cls,
        benchmark_name: str,
        policy: str,
        accesses: int,
        seed: Optional[int] = None,
        capacity_cores: Union[int, float] = 1,
        warmup_fraction: Optional[float] = None,
        prefetcher: str = "none",
        **overrides: object,
    ) -> "SimJob":
        """Job equivalent of :func:`repro.sim.runner.run_single`."""
        from repro.common.rng import DEFAULT_SEED
        from repro.sim.runner import DEFAULT_WARMUP_FRACTION

        return cls(
            members=(benchmark_name,),
            policy=policy,
            accesses=accesses,
            seed=DEFAULT_SEED if seed is None else seed,
            kind="single",
            warmup_fraction=(
                DEFAULT_WARMUP_FRACTION if warmup_fraction is None else warmup_fraction
            ),
            prefetcher=prefetcher,
            capacity_cores=capacity_cores,
            overrides=_normalized_overrides(overrides),
        )

    @classmethod
    def alone(
        cls,
        benchmark_name: str,
        capacity_cores: int,
        accesses: int,
        seed: Optional[int] = None,
        policy: str = "lru",
    ) -> "SimJob":
        """The weighted-speedup denominator run: one benchmark, whole LLC."""
        return cls.single(
            benchmark_name, policy, accesses, seed, capacity_cores=capacity_cores
        )

    @classmethod
    def probe(
        cls, benchmark_name: str, accesses: int, seed: Optional[int] = None
    ) -> "SimJob":
        """Job equivalent of :func:`repro.sim.runner.run_probe`.

        The probe measures the LRU baseline over the whole trace, so its
        policy is ``"lru"`` and it has no warmup.
        """
        from repro.common.rng import DEFAULT_SEED

        return cls(
            members=(benchmark_name,),
            policy="lru",
            accesses=accesses,
            seed=DEFAULT_SEED if seed is None else seed,
            kind="probe",
            warmup_fraction=0.0,
        )

    @property
    def expected_cores(self) -> int:
        """Core count a valid result for this job must report."""
        return len(self.members) if self.kind == "workload" else 1

    # ------------------------------------------------------------------
    # Content addressing and serialization
    # ------------------------------------------------------------------

    def spec(self) -> Dict[str, object]:
        """Canonical field dict (the hashed content)."""
        return {
            "kind": self.kind,
            "members": list(self.members),
            "policy": self.policy,
            "accesses": self.accesses,
            "seed": self.seed,
            "warmup_fraction": self.warmup_fraction,
            "prefetcher": self.prefetcher,
            "memory_model": self.memory_model,
            "capacity_cores": self.capacity_cores,
            "overrides": [[name, value] for name, value in self.overrides],
        }

    def key(self) -> str:
        """Stable content hash addressing this job's result in the store."""
        canon = json.dumps(
            {"engine_version": ENGINE_VERSION, "spec": self.spec()},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable representation (round-trips via from_dict)."""
        return self.spec()

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SimJob":
        """Rebuild a job from :meth:`to_dict` output."""
        return cls(
            members=tuple(payload["members"]),
            policy=str(payload["policy"]),
            accesses=int(payload["accesses"]),
            seed=int(payload["seed"]),
            kind=str(payload["kind"]),
            warmup_fraction=float(payload["warmup_fraction"]),
            prefetcher=str(payload["prefetcher"]),
            memory_model=str(payload["memory_model"]),
            capacity_cores=payload["capacity_cores"],
            overrides=tuple((name, value) for name, value in payload["overrides"]),
        )

    def describe(self) -> str:
        """Short human-readable label for progress reporting.

        Names every field that differs from its default, so two jobs of
        one batch never share a label (the label is not hashed).
        """
        from repro.common.rng import DEFAULT_SEED

        target = "+".join(self.members)
        if self.kind == "probe":
            # SimJob.probe sets the policy, and no warmup.
            label = f"probe:{target} n={self.accesses}"
            warmup = 0.0
        else:
            label = f"{self.kind}:{target}@{self.policy} n={self.accesses}"
            warmup = SimJob.warmup_fraction
        for name, value, default in (
            ("seed", self.seed, DEFAULT_SEED),
            ("warmup", self.warmup_fraction, warmup),
            ("prefetcher", self.prefetcher, "none"),
            ("memory", self.memory_model, "fixed"),
            ("cap", self.capacity_cores, 1),
        ):
            if value != default:
                label += f" {name}={value}"
        return label + "".join(f" {name}={value}" for name, value in self.overrides)


def execute_job(job: SimJob) -> JobResult:
    """Run one job to completion and return its :data:`JobResult`.

    A module-level function so :class:`~concurrent.futures.ProcessPoolExecutor`
    workers can pickle it.  Imports lazily so forked workers pay the
    import cost only once (via the parent) and no import cycle forms
    between the exec and sim layers.

    When tracing is enabled (``REPRO_TRACE_DIR``, inherited by pool
    workers through the environment), the execution is wrapped in an
    ``exec.job`` span in *this* process's trace file — the "running"
    half of the job lifecycle, which the scheduler cannot observe from
    the parent process.
    """
    from repro.obs.trace import active_tracer

    tracer = active_tracer()
    if tracer is None:
        return _execute(job)
    with tracer.span(
        "exec.job", key=job.key()[:12], label=job.describe(), policy=job.policy
    ):
        return _execute(job)


def _execute(job: SimJob) -> JobResult:
    """Dispatch a job spec to the matching runner helper."""
    from repro.sim.runner import run_probe, run_single, run_workload

    if job.kind == "probe":
        return run_probe(job.members[0], job.accesses, job.seed)
    overrides = dict(job.overrides)
    if job.kind == "single":
        return run_single(
            job.members[0],
            job.policy,
            job.accesses,
            job.seed,
            num_cores_capacity=job.capacity_cores,
            warmup_fraction=job.warmup_fraction,
            prefetcher=job.prefetcher,
            **overrides,
        )
    return run_workload(
        job.members,
        job.policy,
        None,
        job.accesses,
        job.seed,
        job.warmup_fraction,
        job.prefetcher,
        job.memory_model,
        **overrides,
    )


def import_job_modules() -> None:
    """Import what a job's first run would otherwise import lazily.

    The scheduler calls this before it forks a pool, so every worker
    inherits these modules instead of importing them on its first job:
    the runner, numpy's random generators (trace generation) and the
    invariant-checker package the engine consults at the start of a
    run.
    """
    import numpy.random  # noqa: F401

    import repro.check.invariants  # noqa: F401
    import repro.sim.runner  # noqa: F401
