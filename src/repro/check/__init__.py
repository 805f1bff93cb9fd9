"""Self-checking layer: invariant sanitizer, differential oracle, fuzzer.

Three lines of defense against silent state corruption in the optimized
cache kernel (see docs/checking.md):

* :mod:`repro.check.invariants` — structural invariant checkers over
  every shipped LLC organization, wired into the engine at a cadence
  chosen by the ``REPRO_CHECK`` environment variable;
* :mod:`repro.check.oracle` — deliberately slow dict-based reference
  models run in lockstep against the optimized kernel, diffing hit/miss
  outcomes, victim choice and set contents after every access;
* :mod:`repro.check.fuzz` — a deterministic fuzz harness (also the
  ``nucache-repro check`` CLI subcommand) driving seeded random streams
  across policy × geometry × DeliWay-split grids, shrinking failures to
  minimal reproducers.

Every engine run imports :mod:`repro.check.invariants` (it asks
``REPRO_CHECK`` for a checker), so only that module loads with the
package.  The oracle's and the fuzzer's names load on first use.
"""

import importlib

from repro.check.invariants import (
    CHECK_ENV_VAR,
    MODE_ACCESS,
    MODE_EPOCH,
    MODE_OFF,
    MODES,
    EngineChecker,
    assert_llc,
    check_llc,
    current_mode,
    engine_checker,
    snapshot_llc,
)

#: Names that load their module on first access: name -> module.
_LAZY = {
    "DifferentialHarness": "repro.check.oracle",
    "make_reference": "repro.check.oracle",
    "FuzzCase": "repro.check.fuzz",
    "default_grid": "repro.check.fuzz",
    "run_case": "repro.check.fuzz",
    "run_check": "repro.check.fuzz",
}


def __getattr__(name: str):
    """Load an oracle or fuzzer name on first access (PEP 562)."""
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


__all__ = [
    "CHECK_ENV_VAR",
    "MODES",
    "MODE_OFF",
    "MODE_EPOCH",
    "MODE_ACCESS",
    "EngineChecker",
    "assert_llc",
    "check_llc",
    "current_mode",
    "engine_checker",
    "snapshot_llc",
    "DifferentialHarness",
    "make_reference",
    "FuzzCase",
    "default_grid",
    "run_case",
    "run_check",
]
