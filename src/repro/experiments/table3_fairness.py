"""Table 3 — fairness-oriented metrics (extension).

Weighted speedup is throughput-biased; the shared-cache literature also
reports ANTT (average normalized turnaround time, lower better),
harmonic-mean speedup and min/max fairness.  This table reports all
three for every quad-core mix under LRU and NUcache, verifying that
NUcache's throughput gain does not come out of one core's hide.
"""

from __future__ import annotations

from repro.common.rng import DEFAULT_SEED
from repro.exec import SimJob
from repro.experiments.base import ExperimentResult, scaled_accesses
from repro.experiments.harness import mix_batch
from repro.metrics.multicore import (
    average_normalized_turnaround,
    fairness,
    harmonic_mean_speedup,
)
from repro.workloads.mixes import mix_names

EXPERIMENT_ID = "table3"
TITLE = "Quad-core fairness metrics: ANTT, harmonic speedup, min/max fairness"
DEFAULT_ACCESSES = 120_000


def run(accesses: int = DEFAULT_ACCESSES, seed: int = DEFAULT_SEED,
        num_cores: int = 4) -> ExperimentResult:
    """Compute the fairness table."""
    accesses = scaled_accesses(accesses)
    mixes = mix_names(num_cores)
    mix_results, denominators = mix_batch(
        mixes,
        [
            SimJob.mix(mix_name, policy, accesses, seed)
            for mix_name in mixes
            for policy in ("lru", "nucache")
        ],
        accesses,
        seed,
        f"fairness-grid:{len(mixes)}mixes",
    )
    results = iter(mix_results)
    rows = []
    for mix_name in mixes:
        alone = denominators[mix_name]
        row: dict = {"mix": mix_name}
        for policy in ("lru", "nucache"):
            result = next(results)
            row[f"{policy}:antt"] = round(
                average_normalized_turnaround(result.ipcs, alone), 3
            )
            row[f"{policy}:hmean"] = round(
                harmonic_mean_speedup(result.ipcs, alone), 3
            )
            row[f"{policy}:fairness"] = round(fairness(result.ipcs, alone), 3)
        rows.append(row)
    better_antt = sum(
        1 for row in rows if row["nucache:antt"] <= row["lru:antt"] + 1e-9
    )
    summary = {"mixes_with_antt_improved_or_equal": float(better_antt),
               "mixes_total": float(len(rows))}
    notes = (
        "Shape target: NUcache improves (lowers) ANTT and improves "
        "harmonic speedup on the interference-heavy mixes without "
        "collapsing fairness on any mix."
    )
    return ExperimentResult(EXPERIMENT_ID, TITLE, rows, notes, summary)


def main() -> None:
    """Print the table."""
    print(run().to_text())


if __name__ == "__main__":
    main()
