"""The baseline probe behind the characterization figures (Fig 1, Fig 2).

Both figures describe the LRU baseline's eviction stream, so one
:func:`~repro.sim.runner.run_probe` run per benchmark serves both.  The
runs are scheduler jobs (:meth:`~repro.exec.job.SimJob.probe`): a cold
figure computes them on the worker pool, a warm one reads them from the
result store, and an in-process memo lets Fig 2 after Fig 1 (or a
``--no-cache`` run) resolve each benchmark once per process.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.common.rng import DEFAULT_SEED
from repro.exec import SimJob, run_jobs
from repro.sim.engine import ProbeResult

#: In-process memo of probe results, keyed ``(benchmark, accesses, seed)``.
_PROBE_MEMO: Dict[Tuple[str, int, int], ProbeResult] = {}


def baseline_probes(
    names: Sequence[str], accesses: int, seed: int = DEFAULT_SEED
) -> List[ProbeResult]:
    """One :class:`~repro.sim.engine.ProbeResult` per benchmark, in order.

    Benchmarks the memo lacks resolve as one scheduler batch labelled
    ``probe``.  Callers share the returned objects.
    """
    missing = [name for name in names if (name, accesses, seed) not in _PROBE_MEMO]
    if missing:
        jobs = [SimJob.probe(name, accesses, seed) for name in missing]
        for name, result in zip(missing, run_jobs(jobs, label="probe")):
            _PROBE_MEMO[(name, accesses, seed)] = result
    return [_PROBE_MEMO[(name, accesses, seed)] for name in names]
