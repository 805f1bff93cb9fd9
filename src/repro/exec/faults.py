"""Deterministic fault injection for the execution layer.

Chaos testing the scheduler needs failures that are *repeatable*: the
same plan, seed, and job batch must produce the same crashes in the same
places, so a chaos run can be diffed against a clean run byte for byte.
This module provides that as two wrappers:

* :class:`FaultyExecute` wraps :func:`~repro.exec.job.execute_job` and
  injects, per job, a worker **crash** (``SIGKILL`` of the worker
  process), a **hang** (a sleep long enough to trip the scheduler's
  per-job timeout), or a **flake** (a transient raised exception).
* :class:`FaultyStore` wraps a
  :class:`~repro.exec.stores.fs.FileResultStore` and injects every
  store-level fault itself, through the wrapped store's public API:
  ``corrupt`` writes a plausible-but-invalid copy of a fresh result
  (exercising read-validate-quarantine), ``store.put.crash`` fails a
  write the way a crashed writer would, and ``store.get.corrupt``
  overwrites an entry with an invalid copy just before it is read.

Whether a given job is faulted is a pure function of the plan's seed and
the job's content key (via :mod:`repro.common.rng`), so fault placement
is stable across runs and worker counts.  Each (kind, key) fault fires
**once**, recorded by a marker file in a scratch directory — the retry
that follows runs clean, which is what makes end results byte-identical
to an undisturbed run.

Activation is programmatic (pass the wrappers to a scheduler) or via the
environment, honoured by :func:`repro.exec.context.get_scheduler`::

    REPRO_FAULTS="flake=0.5,crash=0.25,corrupt=0.3" REPRO_FAULTS_SEED=7 \
        nucache-repro run fig5 --jobs 2
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Optional

from repro.common.errors import ExecError, StoreError
from repro.common.rng import make_rng
from repro.exec.job import JobResult, SimJob, execute_job
from repro.exec.stores import default_store_dir
from repro.sim.engine import ProbeResult

#: Environment variable holding the fault spec (``kind=rate,...``).
FAULTS_ENV_VAR = "REPRO_FAULTS"
#: Environment variable overriding the fault-placement seed (default 0).
FAULTS_SEED_ENV_VAR = "REPRO_FAULTS_SEED"

#: Injectable executor-level fault kinds.
EXECUTOR_FAULT_KINDS = ("flake", "crash", "hang", "corrupt")

#: Injectable store-level fault kinds (dotted names; mapped onto
#: :class:`FaultPlan` fields by replacing dots with underscores).
STORE_FAULT_KINDS = ("store.put.crash", "store.get.corrupt")

#: Every injectable fault kind.
FAULT_KINDS = EXECUTOR_FAULT_KINDS + STORE_FAULT_KINDS


def _fault_field(kind: str) -> str:
    """The :class:`FaultPlan` field backing a (possibly dotted) kind."""
    return kind.replace(".", "_")


class InjectedFault(RuntimeError):
    """A deliberately injected failure (so chaos tests can tell it apart)."""


@dataclass(frozen=True)
class FaultPlan:
    """Per-kind fault rates plus the seed and once-marker scratch dir.

    Rates are probabilities in ``[0, 1]`` evaluated per unique job key;
    ``seed`` positions the faults, ``scratch`` is where fire-once marker
    files live (defaults to ``<store base>/fault-markers``).
    """

    flake: float = 0.0
    crash: float = 0.0
    hang: float = 0.0
    corrupt: float = 0.0
    store_put_crash: float = 0.0
    store_get_corrupt: float = 0.0
    seed: int = 0
    hang_seconds: float = 30.0
    scratch: str = ""

    def __post_init__(self) -> None:
        for kind in FAULT_KINDS:
            rate = getattr(self, _fault_field(kind))
            if not 0.0 <= rate <= 1.0:
                raise ExecError(f"fault rate {kind}={rate} outside [0, 1]")

    def active(self) -> bool:
        """Whether any fault kind has a non-zero rate."""
        return any(getattr(self, _fault_field(kind)) > 0.0 for kind in FAULT_KINDS)

    def _scratch_dir(self) -> Path:
        if self.scratch:
            return Path(self.scratch)
        return default_store_dir() / "fault-markers"

    def selected(self, kind: str, key: str) -> bool:
        """Deterministic draw: is this (kind, job-key) pair faulted at all?"""
        rate = getattr(self, _fault_field(kind))
        if rate <= 0.0:
            return False
        return make_rng(self.seed, f"fault:{kind}:{key}").random() < rate

    def fired(self, kind: str, key: str) -> bool:
        """Whether the (kind, key) fault has already fired (marker exists)."""
        return (self._scratch_dir() / f"{kind}-{key}").exists()

    def fire(self, kind: str, key: str) -> bool:
        """True exactly once per selected (kind, key) pair.

        The first call for a selected pair atomically creates a marker
        file and returns True; every later call (the retry, another
        worker, a resumed run) sees the marker and returns False.
        """
        if not self.selected(kind, key):
            return False
        scratch = self._scratch_dir()
        scratch.mkdir(parents=True, exist_ok=True)
        marker = scratch / f"{kind}-{key}"
        try:
            marker.touch(exist_ok=False)
        except FileExistsError:
            return False
        return True

    @classmethod
    def parse(
        cls,
        spec: str,
        seed: int = 0,
        scratch: str = "",
        hang_seconds: float = 30.0,
    ) -> "FaultPlan":
        """Build a plan from a ``kind=rate,kind=rate`` spec string.

        A bare ``kind`` (no ``=rate``) means rate 1.0.
        """
        rates: Dict[str, float] = {}
        for chunk in spec.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            name, _, raw = chunk.partition("=")
            name = name.strip()
            if name not in FAULT_KINDS:
                raise ExecError(
                    f"unknown fault kind {name!r}; expected one of {FAULT_KINDS}"
                )
            try:
                rates[_fault_field(name)] = float(raw) if raw else 1.0
            except ValueError:
                raise ExecError(f"bad fault rate in {chunk!r}") from None
        return cls(seed=seed, scratch=scratch, hang_seconds=hang_seconds, **rates)

    @classmethod
    def from_env(cls) -> Optional["FaultPlan"]:
        """The plan configured via ``REPRO_FAULTS``, or ``None``."""
        spec = os.environ.get(FAULTS_ENV_VAR)
        if not spec:
            return None
        raw_seed = os.environ.get(FAULTS_SEED_ENV_VAR, "0")
        try:
            seed = int(raw_seed)
        except ValueError:
            raise ExecError(
                f"{FAULTS_SEED_ENV_VAR} must be an integer, got {raw_seed!r}"
            ) from None
        plan = cls.parse(spec, seed=seed)
        return plan if plan.active() else None


class FaultyExecute:
    """Picklable ``execute_job`` wrapper that injects plan faults.

    Safe under a ``ProcessPoolExecutor``: the crash fault kills the
    *worker* process with ``SIGKILL`` (surfacing as ``BrokenProcessPool``
    in the parent).  When running inline in the main process it degrades
    to raising :class:`InjectedFault` — killing the interpreter under
    test would take the suite with it.
    """

    def __init__(self, plan: FaultPlan, execute=execute_job) -> None:
        self.plan = plan
        self.execute = execute

    def __call__(self, job: SimJob):
        key = job.key()
        if self.plan.fire("hang", key):
            time.sleep(self.plan.hang_seconds)
        if self.plan.fire("crash", key):
            if multiprocessing.parent_process() is not None:
                os.kill(os.getpid(), signal.SIGKILL)
            raise InjectedFault(f"injected crash (inline) for job {key[:12]}")
        if self.plan.fire("flake", key):
            raise InjectedFault(f"injected transient failure for job {key[:12]}")
        return self.execute(job)


def _violating(result: JobResult) -> JobResult:
    """Copy of ``result`` that breaks the engine invariants.

    A simulation's first core gets ``llc_misses = llc_accesses + 1``; a
    probe gets a negative Next-Use distance.  Both are well-formed on
    every codec, so only read-side validation can catch them.
    """
    if isinstance(result, ProbeResult):
        return replace(result, distances=[*result.distances, -1])
    first = result.cores[0]
    broken = replace(first, llc_misses=first.llc_accesses + 1)
    return replace(result, cores=[broken, *result.cores[1:]])


class FaultyStore:
    """Result-store proxy that injects plan faults into store operations.

    Every method delegates to the wrapped store, and every store fault is
    made here from the store's own public API — ``put`` does not
    validate but every read does:

    * ``corrupt`` — ``put`` an invariant-violating copy of the result.
      Read-side validation must quarantine it, never serve it.
    * ``store.put.crash`` — fail the ``put`` the way a crashed writer
      would: raise ``StoreError`` with nothing published (the scheduler
      degrades, the batch still completes).
    * ``store.get.corrupt`` — overwrite an existing entry with an
      invalid copy just before it is read, exercising quarantine on the
      read path.
    """

    def __init__(self, store, plan: FaultPlan) -> None:
        self._store = store
        self._plan = plan

    def __getattr__(self, name):
        return getattr(self._store, name)

    def __contains__(self, job: SimJob) -> bool:
        return job in self._store

    def get(self, job: SimJob):
        """Read via the wrapped store, damaging planned entries first."""
        key = job.key()
        if (
            self._plan.selected("store.get.corrupt", key)
            and not self._plan.fired("store.get.corrupt", key)
        ):
            # Only burn the fire-once marker when there is an entry to
            # damage, so a cold get doesn't waste the fault.
            stored = self._store.get(job)
            if stored is not None:
                self._store.put(job, _violating(stored))
                self._plan.fire("store.get.corrupt", key)
        return self._store.get(job)

    def put(self, job: SimJob, result):
        """Persist via the wrapped store, injecting planned write faults."""
        key = job.key()
        if self._plan.fire("store.put.crash", key):
            raise StoreError(f"injected store crash mid-put for {key[:12]}")
        if self._plan.fire("corrupt", key):
            result = _violating(result)
        return self._store.put(job, result)
