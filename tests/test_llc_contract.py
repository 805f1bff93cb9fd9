"""The contract every shared-LLC organization in the policy registry keeps.

Each name :func:`repro.sim.policies.policy_names` lists is driven through
the same two-core stream, far larger than the cache, and must:

* count every access exactly once, split by the requesting core, with
  its trace counters agreeing with its statistics;
* conserve lines: the lines it holds are the lines it installed minus
  the lines it evicted, never more than its capacity;
* replay the stream to the same outcomes when built again with the same
  seed, which is what lets the result store key a job by its inputs.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.check.invariants import check_stats
from repro.common.config import tiny_system_config
from repro.sim.policies import make_llc, policy_names

CORES = 2
CONFIG = tiny_system_config(CORES)
CAPACITY_LINES = CONFIG.llc.size_bytes // CONFIG.llc.block_bytes


def _stream(length: int = 4000, blocks: int = 1200, seed: int = 1):
    """``(block, core, pc, is_write)`` tuples: 2.3x the LLC's lines, 8 PCs."""
    rng = np.random.default_rng(seed)
    return [
        (int(block), int(core), int(pc), bool(write))
        for block, core, pc, write in zip(
            rng.integers(0, blocks, length),
            rng.integers(0, CORES, length),
            rng.integers(0, 8, length),
            rng.integers(0, 2, length),
        )
    ]


STREAM = _stream()


def _drive(policy: str, seed: int = 3):
    llc = make_llc(policy, CONFIG, seed=seed)
    outcomes = [llc.access(*access) for access in STREAM]
    return llc, outcomes


@pytest.mark.parametrize("policy", policy_names())
def test_every_access_is_counted_once(policy):
    llc, outcomes = _drive(policy)
    total = llc.stats.total
    assert total.hits == sum(outcomes)
    assert total.accesses == len(STREAM)
    by_core = Counter(core for _block, core, _pc, _write in STREAM)
    for core in range(CORES):
        assert llc.stats.core_stats(core).accesses == by_core[core]
    assert check_stats(llc.stats, policy) == []
    counters = llc.snapshot_counters()
    assert (counters["hits"], counters["misses"]) == (total.hits, total.misses)
    assert (counters["evictions"], counters["writebacks"]) == (
        total.evictions, total.writebacks,
    )


@pytest.mark.parametrize("policy", policy_names())
def test_resident_lines_are_installed_minus_evicted(policy):
    llc, _outcomes = _drive(policy)
    total = llc.stats.total
    # Organizations that can bypass count their installs as ``fills``;
    # for the others every miss installs a line.
    installed = llc.snapshot_counters().get("fills", total.misses)
    held = llc.occupancy_by_core()
    assert set(held) <= set(range(CORES))
    assert sum(held.values()) == installed - total.evictions
    assert 0 < sum(held.values()) <= CAPACITY_LINES
    assert total.evictions > 0  # the stream overflows the cache


@pytest.mark.parametrize("policy", policy_names())
def test_a_seeded_build_replays_the_same_outcomes(policy):
    first, first_outcomes = _drive(policy)
    again, again_outcomes = _drive(policy)
    assert again_outcomes == first_outcomes
    assert again.snapshot_counters() == first.snapshot_counters()
    assert again.occupancy_by_core() == first.occupancy_by_core()
