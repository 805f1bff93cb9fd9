"""Fig. 15 — sensitivity to LLC capacity (extension of the paper's
cache-size sensitivity discussion).

NUcache's benefit window is bounded on both sides: a small-enough LLC
cannot capture the delinquent loops at all (their Next-Use distances
exceed any retention the DeliWays can afford), a big-enough LLC holds
them under plain LRU (nothing left to capture).  This sweep moves the
single-core LLC from half to four times the default 256 KB and reports
NUcache's IPC gain over same-size LRU at each point — the expected
shape is a hump with its peak near the default (the workloads were
calibrated there, mirroring the paper's choice of SPEC-vs-1MB).
"""

from __future__ import annotations

from dataclasses import replace

from repro.common.config import CacheGeometry, paper_system_config
from repro.common.rng import DEFAULT_SEED
from repro.experiments.base import ExperimentResult, scaled_accesses
from repro.metrics.multicore import geometric_mean
from repro.sim.memory import FixedLatencyMemory
from repro.sim.policies import make_llc
from repro.sim.runner import make_traces
from repro.sim.vector import make_engine

EXPERIMENT_ID = "fig15"
TITLE = "NUcache gain vs LLC capacity (single core, same-size LRU baseline)"
DEFAULT_ACCESSES = 120_000
#: LLC sizes in KB (default machine is 256 KB per core).
SIZE_SWEEP_KB = (128, 256, 512, 1024)
BENCHMARKS = ("art_like", "ammp_like", "soplex_like", "equake_like")


def _run_at_size(name: str, policy: str, size_kb: int, accesses: int,
                 seed: int) -> float:
    base = paper_system_config(1)
    config = replace(
        base, llc=CacheGeometry(size_bytes=size_kb * 1024, block_bytes=64, ways=16)
    )
    traces = make_traces([name], accesses, seed)
    llc = make_llc(policy, config, seed)
    engine = make_engine(
        traces, llc, config, FixedLatencyMemory(config.latency.memory),
        warmup_fraction=0.25,
    )
    return engine.run().cores[0].ipc


def run(accesses: int = DEFAULT_ACCESSES, seed: int = DEFAULT_SEED) -> ExperimentResult:
    """Sweep the LLC size for the delinquent benchmarks."""
    accesses = scaled_accesses(accesses)
    rows = []
    per_size = {size: [] for size in SIZE_SWEEP_KB}
    for name in BENCHMARKS:
        row: dict = {"benchmark": name}
        for size_kb in SIZE_SWEEP_KB:
            lru_ipc = _run_at_size(name, "lru", size_kb, accesses, seed)
            nuca_ipc = _run_at_size(name, "nucache", size_kb, accesses, seed)
            ratio = nuca_ipc / lru_ipc if lru_ipc else 1.0
            row[f"{size_kb}KB"] = round(ratio, 4)
            per_size[size_kb].append(ratio)
        rows.append(row)
    gmean_row: dict = {"benchmark": "gmean"}
    for size_kb in SIZE_SWEEP_KB:
        gmean_row[f"{size_kb}KB"] = round(geometric_mean(per_size[size_kb]), 4)
    rows.append(gmean_row)
    notes = (
        "Cells are NUcache IPC over same-size 16-way LRU.  Shape "
        "target: a hump — little to gain when the LLC is far too small "
        "or big enough for LRU, the peak near the calibrated 256 KB."
    )
    return ExperimentResult(EXPERIMENT_ID, TITLE, rows, notes)


def main() -> None:
    """Print the figure's data."""
    print(run().to_text())


if __name__ == "__main__":
    main()
