"""Fig. 9 — selection-mechanism and epoch-length ablations.

Two claims behind the PC-selection design are tested here:

* **Cost-benefit matters** — comparing the paper's greedy cost-benefit
  selector against the naive "retain the top-k miss PCs" strawman, the
  "retain everything" victim-buffer extreme, and an exhaustive oracle
  (on a reduced candidate pool so the oracle is tractable).  On the
  delinquent benchmarks topk/all also retain the streaming/chase PCs
  (they miss the most), flooding the DeliWays so nothing survives to
  its next use — they collapse to LRU-level while cost-benefit
  selection declines the far-reuse PCs and wins.
* **Epoch length** — too short re-decides on noise, too long adapts
  slowly; the mechanism should be flat over a wide middle range.
"""

from __future__ import annotations

from repro.common.rng import DEFAULT_SEED
from repro.experiments.base import ExperimentResult, scaled_accesses
from repro.experiments.harness import ablation_rows

EXPERIMENT_ID = "fig9"
TITLE = "Ablations: PC-selection mechanism and epoch length (single core)"
DEFAULT_ACCESSES = 150_000
SELECTORS = ("greedy", "topk", "all", "oracle")
EPOCH_SWEEP = (2_500, 5_000, 10_000, 20_000, 40_000)
BENCHMARKS = ("art_like", "ammp_like", "mcf_like", "soplex_like")
#: Reduced pool so the oracle's exhaustive search stays tractable.
ORACLE_CANDIDATES = 10
ORACLE_MAX_SELECTED = 5


def run(accesses: int = DEFAULT_ACCESSES, seed: int = DEFAULT_SEED) -> ExperimentResult:
    """Run both ablations; rows are tagged by the ``ablation`` column."""
    oracle_pool = {
        "num_candidate_pcs": ORACLE_CANDIDATES,
        "max_selected_pcs": ORACLE_MAX_SELECTED,
    }
    ablations = {
        "selector": {
            selector: {"selector": selector, **oracle_pool} for selector in SELECTORS
        },
        "epoch": {f"E={epoch}": {"epoch_misses": epoch} for epoch in EPOCH_SWEEP},
    }
    rows = ablation_rows(BENCHMARKS, ablations, scaled_accesses(accesses), seed)
    notes = (
        "Cells are IPC normalized to LRU.  Shape targets: greedy ~ oracle "
        ">> topk ~ 1.0 on the delinquent benchmarks (topk floods the "
        "DeliWays with stream lines); epoch sensitivity roughly flat over "
        "the middle of the sweep."
    )
    return ExperimentResult(EXPERIMENT_ID, TITLE, rows, notes)


def main() -> None:
    """Print the figure's data."""
    print(run().to_text())


if __name__ == "__main__":
    main()
