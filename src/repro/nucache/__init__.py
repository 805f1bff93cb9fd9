"""NUcache: the paper's contribution — organization, profiling, selection."""

from repro.nucache.controller import NUcacheController, PCKey, WARMUP_FRACTION
from repro.nucache.nextuse import EpochProfile, NextUseProfiler
from repro.nucache.organization import NUCache
from repro.nucache.partitioned import PartitionedNUCache
from repro.nucache.selection import (
    SELECTORS,
    all_select,
    evaluate_subset,
    greedy_select,
    oracle_select,
    topk_select,
)

__all__ = [
    "EpochProfile",
    "NUCache",
    "NUcacheController",
    "PartitionedNUCache",
    "NextUseProfiler",
    "PCKey",
    "SELECTORS",
    "WARMUP_FRACTION",
    "all_select",
    "evaluate_subset",
    "greedy_select",
    "oracle_select",
    "topk_select",
]
