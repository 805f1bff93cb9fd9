"""Fig. 2 — Next-Use distance distribution of delinquent-PC lines.

The paper's second observation: the lines delinquent PCs bring in are
reused *shortly after* eviction — their Next-Use distance (misses between
eviction and next use) is small relative to the cache, which is what
makes modest DeliWay retention profitable.  We reproduce the CDF over
power-of-two distance buckets, measured on the baseline eviction stream.

The distance reported per reuse event is the *solo* Next-Use distance:
evictions from the line's own filling PC between its eviction and its
next use — exactly the distance that decides whether the DeliWays would
capture the reuse if that PC alone were selected, and hence the quantity
the cost-benefit selection reasons about.
"""

from __future__ import annotations

import numpy as np

from repro.common.config import paper_system_config
from repro.common.rng import DEFAULT_SEED
from repro.experiments.base import ExperimentResult, scaled_accesses
from repro.experiments.probe import baseline_probes
from repro.workloads.spec_like import benchmark_names

EXPERIMENT_ID = "fig2"
TITLE = "Next-Use distance CDF of candidate-PC reuses (baseline eviction stream)"
DEFAULT_ACCESSES = 120_000
#: Power-of-two bucket edges, in units of candidate evictions.
BUCKET_EDGES = (256, 512, 1024, 2048, 4096, 8192)


def run(accesses: int = DEFAULT_ACCESSES, seed: int = DEFAULT_SEED) -> ExperimentResult:
    """Compute the per-benchmark Next-Use distance CDF."""
    accesses = scaled_accesses(accesses)
    deli_capacity = (
        paper_system_config(1).nucache.deli_ways
        * paper_system_config(1).llc.num_sets
    )
    rows = []
    names = benchmark_names()
    for name, probe in zip(names, baseline_probes(names, accesses, seed)):
        distances = np.asarray(probe.distances)
        row: dict = {"benchmark": name, "events": int(distances.size)}
        for edge in BUCKET_EDGES:
            share = float(np.mean(distances <= edge)) if distances.size else 0.0
            row[f"<= {edge}"] = round(share, 4)
        rows.append(row)
    notes = (
        f"DeliWay capacity at the default split is {deli_capacity} lines; "
        "delinquent-class benchmarks should have most reuse mass at or "
        "below that distance, streaming ones should have (almost) no "
        "events at all."
    )
    return ExperimentResult(EXPERIMENT_ID, TITLE, rows, notes)


def main() -> None:
    """Print the figure's data."""
    print(run().to_text())


if __name__ == "__main__":
    main()
