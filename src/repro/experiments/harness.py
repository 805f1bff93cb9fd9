"""Shared machinery for the experiment drivers.

Two recipes recur across drivers and are implemented here once: mix
grids normalized by alone runs (weighted speedup and its relatives),
and single-core NUcache ablations normalized to LRU.  Each builds its
whole grid as one batch of :class:`~repro.exec.job.SimJob` specs and
submits it through the scheduler (:func:`repro.exec.run_jobs`): cache
hits come back from the persistent result store, misses fan out across
worker processes, and repeated jobs are deduplicated inside the batch.
Because every simulation is a pure function of its job spec, the
assembled rows are identical at any worker count or cache state.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

from repro.common.rng import DEFAULT_SEED
from repro.exec import SimJob, run_jobs
from repro.metrics.multicore import geometric_mean, weighted_speedup
from repro.sim.engine import SimResult
from repro.workloads.mixes import mix_members, mix_names


def mix_batch(
    mixes: Sequence[str],
    mix_jobs: Sequence[SimJob],
    accesses: int,
    seed: int,
    label: str,
) -> Tuple[List[SimResult], Dict[str, List[float]]]:
    """Resolve ``mix_jobs`` plus every mix's alone-run IPCs as one batch.

    The denominators are LRU runs of each member on the full shared LLC
    — the standard convention, shared by every policy, which is what
    makes the headline "X% over baseline" comparable across policies.
    Returns the mix results in submission order and, per mix, its
    members' alone IPCs in core order.
    """
    members = {mix_name: mix_members(mix_name) for mix_name in mixes}
    alone_jobs = [
        SimJob.alone(name, len(names), accesses, seed)
        for names in members.values()
        for name in names
    ]
    results = run_jobs([*mix_jobs, *alone_jobs], label=label)
    alone = iter(result.cores[0].ipc for result in results[len(mix_jobs):])
    return results[: len(mix_jobs)], {
        mix_name: [next(alone) for _ in names] for mix_name, names in members.items()
    }


def grid_weighted_speedups(
    mixes: Sequence[str],
    policies: Sequence[str],
    accesses: int,
    seed: int = DEFAULT_SEED,
) -> Dict[str, Dict[str, float]]:
    """Weighted speedups for every (mix, policy) pair of a grid."""
    mix_results, alone = mix_batch(
        mixes,
        [
            SimJob.mix(mix_name, policy, accesses, seed)
            for mix_name in mixes
            for policy in policies
        ],
        accesses,
        seed,
        f"speedup-grid:{len(mixes)}mixes x {len(policies)}policies",
    )
    results = iter(mix_results)
    return {
        mix_name: {
            policy: weighted_speedup(next(results).ipcs, alone[mix_name])
            for policy in policies
        }
        for mix_name in mixes
    }


def mix_weighted_speedups(
    mix_name: str,
    policies: Sequence[str],
    accesses: int,
    seed: int = DEFAULT_SEED,
) -> Dict[str, float]:
    """Weighted speedup of one mix under each policy."""
    return grid_weighted_speedups([mix_name], policies, accesses, seed)[mix_name]


def multicore_comparison(
    num_cores: int,
    policies: Sequence[str],
    accesses: int,
    seed: int = DEFAULT_SEED,
    baseline: str = "lru",
) -> List[Dict[str, object]]:
    """Per-mix weighted speedups for a core count, plus a gmean row.

    Each row carries the raw weighted speedup per policy and, for every
    non-baseline policy, a ``<policy>_vs_<baseline>`` relative
    improvement.  The final row holds geometric means over mixes.
    """
    if baseline not in policies:
        raise ValueError(f"baseline {baseline!r} must be among policies {policies}")
    mixes = mix_names(num_cores)
    grid = grid_weighted_speedups(mixes, policies, accesses, seed)
    rows: List[Dict[str, object]] = []
    per_policy: Dict[str, List[float]] = {policy: [] for policy in policies}
    for mix_name in mixes:
        speedups = grid[mix_name]
        row: Dict[str, object] = {"mix": mix_name}
        for policy in policies:
            row[f"ws_{policy}"] = round(speedups[policy], 4)
            per_policy[policy].append(speedups[policy])
        for policy in policies:
            if policy != baseline:
                row[f"{policy}_vs_{baseline}"] = round(
                    speedups[policy] / speedups[baseline] - 1.0, 4
                )
        rows.append(row)

    gmean_row: Dict[str, object] = {"mix": "gmean"}
    base_gmean = geometric_mean(per_policy[baseline])
    for policy in policies:
        policy_gmean = geometric_mean(per_policy[policy])
        gmean_row[f"ws_{policy}"] = round(policy_gmean, 4)
        if policy != baseline:
            gmean_row[f"{policy}_vs_{baseline}"] = round(
                policy_gmean / base_gmean - 1.0, 4
            )
    rows.append(gmean_row)
    return rows


def ablation_rows(
    benchmarks: Sequence[str],
    ablations: Mapping[str, Mapping[str, Mapping[str, object]]],
    accesses: int,
    seed: int,
) -> List[Dict[str, object]]:
    """Single-core NUcache ablation rows, each cell IPC normalized to LRU.

    ``ablations`` maps a row tag to ``{column: NUcache overrides}``;
    every (tag, benchmark) pair yields one row.  All variants plus one
    LRU baseline per benchmark resolve as one scheduler batch.
    """
    batch = [SimJob.single(name, "lru", accesses, seed) for name in benchmarks] + [
        SimJob.single(name, "nucache", accesses, seed, **overrides)
        for columns in ablations.values()
        for name in benchmarks
        for overrides in columns.values()
    ]
    ipcs = [result.cores[0].ipc for result in run_jobs(batch, label="ablation-grid")]
    baseline = dict(zip(benchmarks, ipcs))
    variants = iter(ipcs[len(benchmarks):])
    rows: List[Dict[str, object]] = []
    for tag, columns in ablations.items():
        for name in benchmarks:
            row: Dict[str, object] = {"ablation": tag, "benchmark": name}
            for column in columns:
                row[column] = round(next(variants) / baseline[name], 4)
            rows.append(row)
    return rows
