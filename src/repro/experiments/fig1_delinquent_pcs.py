"""Fig. 1 — miss concentration in delinquent PCs.

The paper's motivating observation: a handful of static PCs account for
the overwhelming majority of LLC misses.  For every benchmark we run the
LRU baseline, rank PCs by miss count and report the cumulative miss
coverage of the top 1/2/4/8/16/32 PCs.
"""

from __future__ import annotations

from repro.common.rng import DEFAULT_SEED
from repro.experiments.base import ExperimentResult, scaled_accesses
from repro.experiments.probe import baseline_probes
from repro.workloads.spec_like import benchmark_names

EXPERIMENT_ID = "fig1"
TITLE = "LLC miss coverage of the top-k delinquent PCs (LRU baseline)"
DEFAULT_ACCESSES = 120_000
TOP_K = (1, 2, 4, 8, 16, 32)


def run(accesses: int = DEFAULT_ACCESSES, seed: int = DEFAULT_SEED) -> ExperimentResult:
    """Compute miss-coverage rows for every benchmark."""
    accesses = scaled_accesses(accesses)
    rows = []
    coverages_at_8 = []
    names = benchmark_names()
    for name, probe in zip(names, baseline_probes(names, accesses, seed)):
        ranked = sorted(probe.misses.values(), reverse=True)
        total = sum(ranked)
        row: dict = {"benchmark": name, "total_misses": total, "miss_pcs": len(ranked)}
        for k in TOP_K:
            covered = sum(ranked[:k])
            row[f"top{k}"] = round(covered / total, 4) if total else 0.0
        rows.append(row)
        if total:
            coverages_at_8.append(row["top8"])
    summary = {}
    if coverages_at_8:
        summary["mean_top8_coverage"] = sum(coverages_at_8) / len(coverages_at_8)
    notes = (
        "Shape target: top-8 PCs should cover the large majority of "
        "misses on every benchmark (the DelinquentPC property)."
    )
    return ExperimentResult(EXPERIMENT_ID, TITLE, rows, notes, summary)


def main() -> None:
    """Print the figure's data."""
    print(run().to_text())


if __name__ == "__main__":
    main()
