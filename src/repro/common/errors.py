"""Exception hierarchy for the NUcache reproduction.

Every error raised on purpose by this library derives from
:class:`ReproError`, so callers can catch library failures without also
swallowing programming errors such as ``TypeError``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigError(ReproError):
    """A configuration object is internally inconsistent.

    Raised eagerly when a config dataclass is constructed (all configs
    validate in ``__post_init__``) so that a bad geometry never reaches the
    simulator.
    """


class TraceError(ReproError):
    """A trace is malformed, empty, or inconsistent with its metadata."""


class SimulationError(ReproError):
    """The simulator reached a state that should be impossible.

    This indicates a bug in a policy or in the engine rather than bad user
    input; it is still raised as a library error so test harnesses can
    report it cleanly.
    """


class InvariantViolation(SimulationError):
    """A runtime structural invariant of the cache model was violated.

    Raised by the :mod:`repro.check` sanitizer and the differential
    oracle.  Besides the message it carries the full list of violated
    invariants and a JSON-serializable *snapshot* of the offending
    structure state, so a postmortem (or the journal, via the exec
    layer) can show exactly what the cache looked like at the moment of
    the violation rather than just a one-line summary.

    Attributes:
        violations: every violated invariant, as human-readable strings.
        snapshot: serialized state of the structures under check
            (set contents, recency stacks, counters, ...).
        context: where the violation was detected (e.g. ``"engine
            step 4096"`` or ``"fuzz access 17"``).
    """

    def __init__(
        self,
        message: str,
        violations=None,
        snapshot=None,
        context: str = "",
    ) -> None:
        super().__init__(message)
        self.violations = list(violations or [])
        self.snapshot = dict(snapshot or {})
        self.context = context

    def __reduce__(self):
        """Pickle support: keep violations/snapshot across process pools."""
        return (
            type(self),
            (self.args[0] if self.args else "", self.violations,
             self.snapshot, self.context),
        )

    def to_dict(self) -> dict:
        """JSON-serializable representation (journals, reproducer files)."""
        return {
            "message": self.args[0] if self.args else "",
            "violations": list(self.violations),
            "snapshot": self.snapshot,
            "context": self.context,
        }


class WorkloadError(ReproError):
    """A workload or mix was requested that the catalog does not define."""


class ExperimentError(ReproError):
    """An experiment driver was invoked with unusable parameters."""


class ExecError(ReproError):
    """A simulation job could not be scheduled or executed.

    Raised by the :mod:`repro.exec` layer when a job spec is malformed or
    when jobs of a batch still fail after the scheduler's retries.
    """


class StoreError(ExecError):
    """The result store's backing medium is unusable for an operation.

    Raised by :mod:`repro.exec.stores` when the store is unavailable,
    read-only, or persistently busy, or its spec is malformed.  The scheduler treats
    it as "compute without the cache" — a degraded mode it counts and
    surfaces — never as a batch failure.
    """


class ValidationError(ExecError):
    """A simulation result violates an engine invariant.

    Raised (or collected as violation strings) by
    :mod:`repro.exec.validate` when a freshly computed or cached result
    fails its integrity checks — such a result must never be served.
    """


class RunInterrupted(ExecError):
    """A batch was interrupted (SIGINT/SIGTERM) before resolving fully.

    Carries the partial :class:`~repro.exec.scheduler.BatchReport` and
    per-job outcomes so callers (the CLI run loop) can journal what
    settled and print a resume hint instead of a stack trace.
    """

    def __init__(self, message: str, report=None, outcomes=None) -> None:
        super().__init__(message)
        self.report = report
        self.outcomes = outcomes or {}
