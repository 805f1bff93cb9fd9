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


@dataclass
class ProbeResult:
    """What the baseline probe behind Fig 1 and Fig 2 measured.

    Attributes:
        misses: LLC misses per PC, in order of each PC's first miss (so
            ``Counter(misses).most_common()`` breaks ties as the run
            met them).
        distances: one solo Next-Use distance per profiled reuse.
    """

    misses: Dict[int, int]
    distances: List[int]

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable representation (exact round-trip).

        The misses are ``[pc, count]`` pairs: a JSON object would turn
        the PCs into strings.
        """
        return {
            "misses": [[pc, count] for pc, count in self.misses.items()],
            "distances": list(self.distances),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ProbeResult":
        """Rebuild a result from :meth:`to_dict` output.

        Values are taken as stored, not coerced, so
        :func:`repro.exec.validate.validate_result` sees a damaged
        payload's types.
        """
        return cls(
            misses={pc: count for pc, count in payload["misses"]},
            distances=list(payload["distances"]),
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

    def run(self) -> SimResult:
        """Run until every core completes its first pass.

        A :class:`RunWatch` traces and checks the run when a tracer or
        ``REPRO_CHECK`` is active.  Both only *read* simulator state, so
        the results are identical; a failed check raises
        :class:`~repro.common.errors.InvariantViolation`.
        """
        with RunWatch(self) as watch:
            self._run_loop(watch.step_checker)
            watch.stage("loop")
            return watch.finish(self._collect(), "scalar")

    def _run_loop(self, checker) -> None:
        """Step every pending core to the end of its first pass.

        The schedule is ordered by ``(clock, core_id)``.  A per-step
        ``checker`` gets the step count after every step of a ``min()``
        scan over the pending cores.  Otherwise only the stepped core's
        clock moves, so a heap keyed that way steps its root until the
        root passes the next core's key: one heap operation per overtake
        rather than a key call per core per access.  Both call
        :meth:`CoreModel.step` once per access.  A lone pending core
        (every single-core run; the tail of every multicore run) needs
        no schedule at all: :meth:`CoreModel.finish_pass` runs the rest
        of its pass in one frame.  The heap's root is overtaken every
        1.2 accesses or so on the paper's mixes, too often for a frame
        per turn to pay.
        """
        cores = self.cores
        llc = self.llc
        memory = self.memory
        pending = [core for core in cores if not core.first_pass_done]
        if checker is not None:
            steps = 0
            while pending:
                runner = min(pending, key=lambda core: core.clock)
                runner.step(llc, memory)
                if runner.first_pass_done:
                    pending = [core for core in cores if not core.first_pass_done]
                steps += 1
                checker.after_step(steps)
            return
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
            heap[0][2].finish_pass(llc, memory)

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
        return SimResult(
            policy=self.llc.name,
            cores=core_results,
            llc_occupancy_by_core=self.llc.occupancy_by_core(),
            llc_extra=self._llc_extra(),
        )

    def _llc_extra(self) -> Dict[str, float]:
        """NUcache's DeliWay counters for ``SimResult.llc_extra``."""
        llc = self.llc
        if getattr(llc, "deli_hits", None) is None:
            return {}
        return {"deli_hits": float(llc.deli_hits), "retentions": float(llc.retentions)}


class RunWatch:
    """The trace records and invariant checks of one engine run.

    Both engines open one per ``run()``; untraced and unchecked, it
    holds nothing.  It records the run at run level (a ``sim.run`` span
    whose end carries the ``path`` taken, ``sim.phase`` per stage, and
    the finished cores and LLC), so tracing never moves a run to another
    path.  NUcache epochs reach the tracer and an epoch-mode checker
    through the controller's ``on_rotate`` hook, held for the run's
    length.  A checker whose cadence counts engine steps is
    :attr:`step_checker`, which only the scalar loop serves.
    """

    def __init__(self, engine: "MulticoreEngine") -> None:
        from repro.check.invariants import engine_checker
        from repro.obs.trace import active_tracer

        self.engine = engine
        self.tracer = active_tracer()
        self.checker = engine_checker(engine.llc)
        counts_steps = self.checker is not None and self.checker.needs_steps
        #: The checker when its cadence counts engine steps, else ``None``.
        self.step_checker = self.checker if counts_steps else None
        self._epoch_checker = None if counts_steps else self.checker
        self.span = None
        self._controller = None
        if self.tracer is not None:
            self.span = self.tracer.span(
                "sim.run", policy=engine.llc.name, cores=len(engine.cores),
                accesses_per_core=engine.cores[0].trace_length,
            )
            self._stage_started = self.span.elapsed
        controller = getattr(engine.llc, "controller", None)
        if controller is not None and (
            self.tracer is not None or self._epoch_checker is not None
        ):
            controller.on_rotate = self._on_rotate
            self._controller = controller

    def __enter__(self) -> "RunWatch":
        return self

    def __exit__(self, *_exc) -> None:
        if self._controller is not None:
            self._controller.on_rotate = None
        if self.span is not None:
            self.span.done(aborted=True)  # a no-op once finish() closed it

    def _on_rotate(self, controller) -> None:
        epoch = controller.epochs_completed
        if self.tracer is not None:
            self.tracer.event(
                "nucache.epoch", epoch=epoch,
                selected=len(controller.selected_slots),
            )
        if self._epoch_checker is not None:
            self._epoch_checker.at_epoch(epoch)

    def stage(self, name: str, **fields: object) -> None:
        """Close stage ``name``: a ``sim.phase`` event timing it."""
        if self.span is None:
            return
        now = self.span.elapsed
        self.tracer.event(
            "sim.phase", phase=name, dur=now - self._stage_started, **fields
        )
        self._stage_started = now

    def finish(self, result: SimResult, path: str) -> SimResult:
        """Check and record the finished run; returns ``result``."""
        if self.checker is not None:
            self.checker.finish()
        if self.span is not None:
            tracer = self.tracer
            cores = self.engine.cores
            for core in cores:
                if core.warmup_accesses > 0:
                    tracer.event(
                        "core.warmup_done", core=core.core_id,
                        clock=core.warmup_clock,
                    )
                tracer.event(
                    "core.first_pass", core=core.core_id,
                    clock=core.completion_clock, cycles=core.cycles(),
                )
            tracer.counter(
                "llc.counters", sum(core.trace_length for core in cores),
                **self.engine.llc.snapshot_counters(),
            )
            self.span.done(path=path)
        return result
