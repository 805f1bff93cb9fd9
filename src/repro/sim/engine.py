"""The multicore trace-driven engine.

Cores progress on local clocks; at every step the engine advances the
core with the *smallest* clock, so accesses from different cores reach
the shared LLC in global time order.  A core that finishes its first
pass leaves the schedule: it is never stepped again, so its clock stays
at its completion and the slower cores run on without its contention.
The standard multiprogrammed methodology instead keeps early finishers
running; DESIGN.md lists this as a methodology deviation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heapreplace
from typing import Dict, List, Optional, Sequence

from repro.cache.cache import LastLevelCache
from repro.common.config import SystemConfig
from repro.common.errors import SimulationError
from repro.prefetch.prefetchers import Prefetcher
from repro.sim.core import CoreModel
from repro.sim.memory import FixedLatencyMemory
from repro.workloads.trace import Trace


@dataclass
class CoreResult:
    """Measured-pass results for one core."""

    core_id: int
    workload: str
    instructions: int
    cycles: int
    ipc: float
    mpki: float
    llc_accesses: int
    llc_misses: int
    level_counts: Dict[str, int]

    @property
    def llc_hit_rate(self) -> float:
        """LLC hit rate over the measured pass."""
        if self.llc_accesses == 0:
            return 0.0
        return 1.0 - self.llc_misses / self.llc_accesses

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable representation (exact round-trip)."""
        return {
            "core_id": self.core_id,
            "workload": self.workload,
            "instructions": self.instructions,
            "cycles": self.cycles,
            "ipc": self.ipc,
            "mpki": self.mpki,
            "llc_accesses": self.llc_accesses,
            "llc_misses": self.llc_misses,
            "level_counts": dict(self.level_counts),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "CoreResult":
        """Rebuild a result from :meth:`to_dict` output."""
        return cls(
            core_id=int(payload["core_id"]),
            workload=str(payload["workload"]),
            instructions=int(payload["instructions"]),
            cycles=int(payload["cycles"]),
            ipc=float(payload["ipc"]),
            mpki=float(payload["mpki"]),
            llc_accesses=int(payload["llc_accesses"]),
            llc_misses=int(payload["llc_misses"]),
            level_counts={str(k): int(v) for k, v in payload["level_counts"].items()},
        )


@dataclass
class SimResult:
    """Results of one multicore (or single-core) simulation."""

    policy: str
    cores: List[CoreResult]
    llc_occupancy_by_core: Dict[int, int] = field(default_factory=dict)
    llc_extra: Dict[str, float] = field(default_factory=dict)

    def core(self, core_id: int) -> CoreResult:
        """Result for one core."""
        for result in self.cores:
            if result.core_id == core_id:
                return result
        raise SimulationError(f"no result for core {core_id}")

    @property
    def ipcs(self) -> List[float]:
        """Per-core IPCs in core order."""
        return [result.ipc for result in self.cores]

    @property
    def total_llc_misses(self) -> int:
        """Total measured LLC misses across cores."""
        return sum(result.llc_misses for result in self.cores)

    def validate(self, job=None) -> List[str]:
        """Engine-invariant violations of this result (empty == valid).

        Delegates to :func:`repro.exec.validate.validate_result`; the
        optional ``job`` enables spec-consistency checks.  Imported
        lazily so the sim layer stays independent of the exec layer.
        """
        from repro.exec.validate import validate_result

        return validate_result(self, job)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable representation (exact round-trip).

        Occupancy keys become strings (JSON objects cannot have integer
        keys); :meth:`from_dict` converts them back.
        """
        return {
            "policy": self.policy,
            "cores": [core.to_dict() for core in self.cores],
            "llc_occupancy_by_core": {
                str(core_id): count
                for core_id, count in self.llc_occupancy_by_core.items()
            },
            "llc_extra": dict(self.llc_extra),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SimResult":
        """Rebuild a result from :meth:`to_dict` output."""
        return cls(
            policy=str(payload["policy"]),
            cores=[CoreResult.from_dict(core) for core in payload["cores"]],
            llc_occupancy_by_core={
                int(core_id): int(count)
                for core_id, count in payload["llc_occupancy_by_core"].items()
            },
            llc_extra={str(k): float(v) for k, v in payload["llc_extra"].items()},
        )


class MulticoreEngine:
    """Runs a set of traces against one shared LLC organization."""

    def __init__(
        self,
        traces: Sequence[Trace],
        llc: LastLevelCache,
        config: SystemConfig,
        memory: Optional[FixedLatencyMemory] = None,
        warmup_fraction: float = 0.0,
        prefetchers: Optional[Sequence[Optional[Prefetcher]]] = None,
    ) -> None:
        if not traces:
            raise SimulationError("need at least one trace")
        if len(traces) != config.num_cores:
            raise SimulationError(
                f"got {len(traces)} traces for {config.num_cores} cores"
            )
        if not 0.0 <= warmup_fraction < 1.0:
            raise SimulationError(
                f"warmup_fraction must be in [0, 1), got {warmup_fraction}"
            )
        if prefetchers is not None and len(prefetchers) != len(traces):
            raise SimulationError(
                f"got {len(prefetchers)} prefetchers for {len(traces)} cores"
            )
        self.llc = llc
        self.config = config
        self.memory = memory or FixedLatencyMemory(config.latency.memory)
        self.cores = [
            CoreModel(core_id, trace, config,
                      warmup_accesses=int(len(trace) * warmup_fraction),
                      prefetcher=None if prefetchers is None else prefetchers[core_id])
            for core_id, trace in enumerate(traces)
        ]

    def run(self, max_steps: Optional[int] = None) -> SimResult:
        """Run until every core completes its first pass.

        When tracing is enabled (see :mod:`repro.obs.trace`), phase
        boundaries — per-core warmup completion, NUcache selection
        epochs, first-pass completion — and sampled LLC counters are
        emitted along the way.  The observer only *reads* simulator
        state, so traced and untraced runs produce identical results;
        with tracing disabled ``observer`` is ``None`` and the loop pays
        one predicate per step.

        When invariant checking is enabled (``REPRO_CHECK=epoch`` or
        ``access``, see :mod:`repro.check.invariants`), the LLC's
        structural invariants are sanitized at the configured cadence
        and a violation raises
        :class:`~repro.common.errors.InvariantViolation`.  The checker
        is read-only too, so a checked run's results stay byte-identical
        to an unchecked one; with ``REPRO_CHECK=off`` (the default)
        ``checker`` is ``None`` and the fast loop is untouched.

        Args:
            max_steps: safety valve for tests; ``None`` means run to
                completion (guaranteed to terminate since every step
                advances some core's cursor).
        """
        from repro.check.invariants import engine_checker
        from repro.obs.trace import active_tracer

        cores = self.cores
        llc = self.llc
        memory = self.memory
        tracer = active_tracer()
        observer = None if tracer is None else _EngineObserver(self, tracer)
        checker = engine_checker(llc)
        pending = [core for core in cores if not core.first_pass_done]
        if observer is None and checker is None and max_steps is None:
            self._run_fast(pending)
            return self._collect()
        steps = 0
        while pending:
            runner = min(pending, key=_clock_of)
            runner.step(llc, memory)
            if runner.first_pass_done:
                pending = [core for core in cores if not core.first_pass_done]
            steps += 1
            if observer is not None:
                observer.after_step(runner, steps)
            if checker is not None:
                checker.after_step(steps)
            if max_steps is not None and steps >= max_steps:
                break
        if observer is not None:
            observer.finish(steps)
        if checker is not None:
            checker.finish(steps)
        return self._collect()

    def _run_fast(self, pending: List[CoreModel]) -> None:
        """The uninstrumented loop, in the instrumented loop's step order.

        ``min(pending, key=_clock_of)`` steps the earliest core, ties
        going to the lowest core id, so the schedule is ordered by
        ``(clock, core_id)``.  Only the stepped core's clock moves, so a
        heap keyed that way steps its root until the root passes the
        next core's key: one heap operation per overtake rather than a
        key call per core per access.  A lone pending core (every
        single-core run; the tail of every multicore run) runs to its
        completion with no heap work.
        """
        llc = self.llc
        memory = self.memory
        heap = [(core.clock, core.core_id, core) for core in pending]
        heapify(heap)
        while len(heap) > 1:
            _clock, core_id, runner = heap[0]
            next_clock, next_id, _next = min(heap[1:3])
            # The root stays first while (clock, core_id) < the next key.
            limit = next_clock if core_id < next_id else next_clock - 1
            step = runner.step
            step(llc, memory)
            while runner.clock <= limit and runner.completion_clock < 0:
                step(llc, memory)
            if runner.completion_clock < 0:
                heapreplace(heap, (runner.clock, core_id, runner))
            else:
                heappop(heap)
        if heap:
            runner = heap[0][2]
            step = runner.step
            while runner.completion_clock < 0:
                step(llc, memory)

    def _collect(self) -> SimResult:
        core_results = [
            CoreResult(
                core_id=core.core_id,
                workload=core.trace.name,
                instructions=core.instructions,
                cycles=core.cycles(),
                ipc=core.ipc(),
                mpki=core.mpki(),
                llc_accesses=core.llc_accesses(),
                llc_misses=core.llc_misses(),
                level_counts=dict(core.level_counts),
            )
            for core in self.cores
        ]
        extra: Dict[str, float] = {}
        deli_hits = getattr(self.llc, "deli_hits", None)
        if deli_hits is not None:
            extra["deli_hits"] = float(deli_hits)
            extra["retentions"] = float(getattr(self.llc, "retentions", 0))
        return SimResult(
            policy=self.llc.name,
            cores=core_results,
            llc_occupancy_by_core=self.llc.occupancy_by_core(),
            llc_extra=extra,
        )


#: Engine steps between sampled LLC counter emissions while tracing.
OBS_SAMPLE_STEPS = 4096


class _EngineObserver:
    """Emits phase/counter trace records for one engine run.

    Strictly read-only over the simulator: it watches per-core warmup
    and first-pass transitions, polls the NUcache controller's epoch
    counter, and samples the LLC's counter snapshot every
    :data:`OBS_SAMPLE_STEPS` steps.  Allocated only when a tracer is
    active, so untraced runs never pay for it.
    """

    def __init__(self, engine: "MulticoreEngine", tracer) -> None:
        self.tracer = tracer
        self.llc = engine.llc
        self.span = tracer.span(
            "sim.run",
            policy=engine.llc.name,
            cores=len(engine.cores),
            accesses_per_core=engine.cores[0].trace_length,
        )
        self._in_warmup = {
            core.core_id for core in engine.cores if core.warmup_accesses > 0
        }
        self._finished: set = set()
        controller = getattr(engine.llc, "controller", None)
        self._controller = controller
        self._epochs_seen = 0 if controller is None else controller.epochs_completed
        self._phase_started = self.span.elapsed

    def _emit_phase(self, phase: str) -> None:
        now = self.span.elapsed
        self.tracer.event("sim.phase", phase=phase, dur=now - self._phase_started)
        self._phase_started = now

    def after_step(self, runner: CoreModel, steps: int) -> None:
        """Observe one engine step (phase transitions, sampled counters)."""
        core_id = runner.core_id
        if core_id in self._in_warmup and (
            runner.warmup_clock > 0 or runner.passes > 0
        ):
            self._in_warmup.discard(core_id)
            self.tracer.event(
                "core.warmup_done", core=core_id, clock=runner.clock
            )
            if not self._in_warmup:
                self._emit_phase("warmup")
        if runner.first_pass_done and core_id not in self._finished:
            self._finished.add(core_id)
            self.tracer.event(
                "core.first_pass",
                core=core_id,
                clock=runner.clock,
                cycles=runner.cycles(),
            )
        controller = self._controller
        if controller is not None and controller.epochs_completed != self._epochs_seen:
            self._epochs_seen = controller.epochs_completed
            self.tracer.event(
                "nucache.epoch",
                epoch=self._epochs_seen,
                selected=len(controller.selected_slots),
            )
        if steps % OBS_SAMPLE_STEPS == 0:
            self.tracer.counter(
                "llc.counters", steps, **self.llc.snapshot_counters()
            )

    def finish(self, steps: int) -> None:
        """Close the run span after the loop ends."""
        if self._in_warmup:
            # max_steps cut the run short inside the warmup window.
            self._in_warmup.clear()
            self._emit_phase("warmup")
        self._emit_phase("measure")
        self.tracer.counter("llc.counters", steps, **self.llc.snapshot_counters())
        self.span.done(steps=steps)


def _clock_of(core: CoreModel) -> int:
    return core.clock
