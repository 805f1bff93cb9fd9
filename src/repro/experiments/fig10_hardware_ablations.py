"""Fig. 10 — hardware-realism ablations (extension).

The simulator profiles Next-Use exactly; the paper's hardware cannot.
This experiment quantifies what each hardware concession costs:

* **Set sampling** — profile every Nth set only (the monitor the
  hardware budget of Table 2 assumes is the 1-in-32 variant).
* **History capacity** — how many evicted tags the monitor remembers
  while waiting for their next use.
* **DeliWay hit handling** — promote to the MainWays (the paper) vs
  refresh inside the DeliWays (a cheaper datapath).
"""

from __future__ import annotations

from repro.common.rng import DEFAULT_SEED
from repro.experiments.base import ExperimentResult, scaled_accesses
from repro.experiments.harness import ablation_rows

EXPERIMENT_ID = "fig10"
TITLE = "Hardware-realism ablations: sampling, history size, DeliWay hits"
DEFAULT_ACCESSES = 150_000
SAMPLE_PERIODS = (1, 8, 32, 64)
HISTORY_CAPACITIES = (512, 2048, 8192, 32768)
BENCHMARKS = ("art_like", "ammp_like", "soplex_like")


def run(accesses: int = DEFAULT_ACCESSES, seed: int = DEFAULT_SEED) -> ExperimentResult:
    """Run the three ablations; rows tagged by the ``ablation`` column."""
    ablations = {
        "sampling": {
            f"1/{period}": {"sample_period": period} for period in SAMPLE_PERIODS
        },
        "history": {
            f"H={capacity}": {"history_capacity": capacity}
            for capacity in HISTORY_CAPACITIES
        },
        "deli-hit": {
            "promote": {"deli_replacement": "fifo"},
            "refresh": {"deli_replacement": "lru"},
        },
    }
    rows = ablation_rows(BENCHMARKS, ablations, scaled_accesses(accesses), seed)
    notes = (
        "Cells are IPC normalized to LRU.  Shape targets: moderate "
        "sampling (1/8, 1/32) keeps most of the exact-profiling gain; "
        "a too-small history forfeits it (reuses fall off the monitor "
        "before being observed); promote-vs-refresh is second order."
    )
    return ExperimentResult(EXPERIMENT_ID, TITLE, rows, notes)


def main() -> None:
    """Print the figure's data."""
    print(run().to_text())


if __name__ == "__main__":
    main()
