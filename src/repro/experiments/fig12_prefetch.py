"""Fig. 12 — interaction with hardware prefetching (extension).

Prefetching changes the LLC picture twice over: prefetchable streams
stop missing (shrinking the delinquent-PC signal) and prefetch fills
add PC-less pollution.  This extension runs representative benchmarks
under each prefetcher model with LRU and NUcache and reports where the
NUcache gain survives.

Expected shape: on *prefetchable* delinquent benchmarks (strided loops,
e.g. art) the stride/stream prefetchers absorb the misses and the
NUcache gain shrinks toward zero — correctly, since there is nothing
left to capture.  On *irregular* delinquent benchmarks (pointer chases,
e.g. equake's chase phase; mcf) prefetchers cannot help, and NUcache's
gain persists on top of them.
"""

from __future__ import annotations

from repro.common.rng import DEFAULT_SEED
from repro.exec import SimJob
from repro.experiments.base import ExperimentResult, scaled_accesses, sim_grid

EXPERIMENT_ID = "fig12"
TITLE = "NUcache gain under hardware prefetching (single core)"
DEFAULT_ACCESSES = 120_000
PREFETCHERS = ("none", "nextline", "stride", "stream")
BENCHMARKS = ("art_like", "equake_like", "mcf_like", "omnetpp_like", "hmmer_like")


def run(accesses: int = DEFAULT_ACCESSES, seed: int = DEFAULT_SEED) -> ExperimentResult:
    """Run the benchmark x prefetcher grid under LRU and NUcache."""
    accesses = scaled_accesses(accesses)
    jobs = [
        SimJob.single(name, policy, accesses, seed, prefetcher=prefetcher)
        for name in BENCHMARKS
        for prefetcher in PREFETCHERS
        for policy in ("lru", "nucache")
    ]
    results = iter(sim_grid(jobs))
    rows = []
    for name in BENCHMARKS:
        row: dict = {"benchmark": name}
        for prefetcher in PREFETCHERS:
            lru = next(results).cores[0]
            nuca = next(results).cores[0]
            gain = nuca.ipc / lru.ipc - 1.0 if lru.ipc else 0.0
            row[f"{prefetcher}:lru_ipc"] = round(lru.ipc, 4)
            row[f"{prefetcher}:gain"] = round(gain, 4)
        rows.append(row)
    notes = (
        "':gain' columns are NUcache's IPC improvement over LRU with the "
        "same prefetcher.  Prefetch fills are untimed (perfect "
        "timeliness, no bandwidth cost) — an upper bound on prefetcher "
        "strength, i.e. the hardest case for showing residual NUcache "
        "benefit."
    )
    return ExperimentResult(EXPERIMENT_ID, TITLE, rows, notes)


def main() -> None:
    """Print the figure's data."""
    print(run().to_text())


if __name__ == "__main__":
    main()
