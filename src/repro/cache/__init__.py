"""Cache substrate: lines, sets and set-associative caches."""

from repro.cache.cache import (
    LEVEL_L1,
    LEVEL_L2,
    LEVEL_LLC,
    LEVEL_MEMORY,
    LastLevelCache,
    SetAssociativeCache,
)
from repro.cache.line import NO_PC_SLOT, CacheLine
from repro.cache.set_ import CacheSet

__all__ = [
    "CacheLine",
    "CacheSet",
    "LEVEL_L1",
    "LEVEL_L2",
    "LEVEL_LLC",
    "LEVEL_MEMORY",
    "LastLevelCache",
    "NO_PC_SLOT",
    "SetAssociativeCache",
]
