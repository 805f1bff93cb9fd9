"""Fig. 13 — sensitivity to memory-bandwidth contention (extension).

The default timing model charges a fixed latency per miss; real DRAM
serializes requests, so eight miss-heavy cores see queueing delay on
top.  This extension re-runs the eight-core comparison with the
bandwidth-limited channel model and checks that NUcache's advantage
*grows* there: every miss it removes also removes a queue slot, so the
benefit compounds under contention.
"""

from __future__ import annotations

from repro.common.rng import DEFAULT_SEED
from repro.exec import SimJob
from repro.experiments.base import ExperimentResult, scaled_accesses
from repro.experiments.harness import mix_batch
from repro.metrics.multicore import geometric_mean, weighted_speedup
from repro.workloads.mixes import mix_names

EXPERIMENT_ID = "fig13"
TITLE = "Eight-core NUcache vs LRU under fixed-latency and bandwidth-limited memory"
DEFAULT_ACCESSES = 100_000
MEMORY_MODELS = ("fixed", "bandwidth")


def run(accesses: int = DEFAULT_ACCESSES, seed: int = DEFAULT_SEED,
        num_cores: int = 8) -> ExperimentResult:
    """Run the mix table under both memory models."""
    accesses = scaled_accesses(accesses)
    mixes = mix_names(num_cores)
    mix_results, denominators = mix_batch(
        mixes,
        [
            SimJob.mix(mix_name, policy, accesses, seed, memory_model=model)
            for mix_name in mixes
            for model in MEMORY_MODELS
            for policy in ("lru", "nucache")
        ],
        accesses,
        seed,
        f"bandwidth-grid:{len(mixes)}mixes",
    )
    results = iter(mix_results)
    rows = []
    improvements = {model: [] for model in MEMORY_MODELS}
    for mix_name in mixes:
        alone = denominators[mix_name]
        row: dict = {"mix": mix_name}
        for model in MEMORY_MODELS:
            base = next(results)
            nuca = next(results)
            base_ws = weighted_speedup(base.ipcs, alone)
            nuca_ws = weighted_speedup(nuca.ipcs, alone)
            gain = nuca_ws / base_ws - 1.0
            row[f"{model}:ws_lru"] = round(base_ws, 4)
            row[f"{model}:gain"] = round(gain, 4)
            improvements[model].append(1.0 + gain)
        rows.append(row)
    gmean_row: dict = {"mix": "gmean"}
    for model in MEMORY_MODELS:
        gmean_row[f"{model}:gain"] = round(geometric_mean(improvements[model]) - 1.0, 4)
    rows.append(gmean_row)
    summary = {
        f"gmean_gain_{model}": float(gmean_row[f"{model}:gain"])
        for model in MEMORY_MODELS
    }
    notes = (
        "The alone-run denominators use fixed-latency memory in both "
        "columns, so ':gain' compares like against like (NUcache/LRU "
        "ratio under each model).  Shape target: the bandwidth-limited "
        "gain is at least the fixed-latency gain."
    )
    return ExperimentResult(EXPERIMENT_ID, TITLE, rows, notes, summary)


def main() -> None:
    """Print the figure's data."""
    print(run().to_text())


if __name__ == "__main__":
    main()
