#!/usr/bin/env python
"""Explore the synthetic SPEC-like workload substrate.

Walks the benchmark catalog and, for one chosen benchmark, shows the two
properties NUcache exploits:

1. *Delinquent PCs*: how few PCs cause most LLC misses.
2. *Next-Use distances*: how soon after eviction those PCs' lines are
   reused, relative to the DeliWays' capacity.

Usage::

    python examples/workload_exploration.py [benchmark_name]
"""

from __future__ import annotations

import sys
from collections import Counter

import numpy as np

from repro import benchmark, generate_trace
from repro.common.config import paper_system_config
from repro.experiments.probe import baseline_probes
from repro.workloads.spec_like import benchmark_class, benchmark_names


def show_catalog() -> None:
    print("benchmark catalog")
    print("-" * 72)
    for name in benchmark_names():
        trace = generate_trace(benchmark(name), 20_000, seed=1)
        print(f"{name:<18} [{benchmark_class(name):<10}] {trace.describe()}")
    print()


def show_delinquency(name: str, accesses: int) -> None:
    (probe,) = baseline_probes([name], accesses)
    misses = Counter(probe.misses)
    total = sum(misses.values())
    print(f"{name}: {total} LLC misses from {len(misses)} distinct PCs")
    if not total:
        print("  (no LLC misses — nothing for NUcache to do here)")
        return
    running = 0
    for rank, (pc, count) in enumerate(misses.most_common(8), start=1):
        running += count
        print(
            f"  #{rank}: pc={pc:#x}  misses={count:6d}  "
            f"cumulative coverage={running / total:.1%}"
        )
    print()


def show_nextuse(name: str, accesses: int) -> None:
    config = paper_system_config(1)
    capacity = config.nucache.deli_ways * config.llc.num_sets
    (probe,) = baseline_probes([name], accesses)
    distances = np.asarray(probe.distances)
    if not distances.size:
        print(f"{name}: no post-eviction reuses observed")
        return
    print(f"{name}: {len(distances)} post-eviction reuses")
    print(f"  median solo Next-Use distance = {int(np.median(distances))} evictions")
    print(f"  DeliWay capacity (default split) = {capacity} lines")
    print(f"  fraction capturable if that PC alone were selected = "
          f"{np.mean(distances <= capacity):.1%}")
    print()


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "art_like"
    accesses = 100_000
    show_catalog()
    show_delinquency(name, accesses)
    show_nextuse(name, accesses)


if __name__ == "__main__":
    main()
