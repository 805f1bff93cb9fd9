"""Basic replacement policies: LRU, FIFO, Random, NRU, tree-PLRU, LIP.

These are the textbook policies the richer schemes (DIP, TADIP, DRRIP,
UCP, PIPP, NUcache) build on or duel against.
"""

from __future__ import annotations

import random

from repro.cache.replacement.base import PolicyFactory, RecencyStackPolicy, ReplacementPolicy
from repro.common.addr import is_power_of_two
from repro.common.rng import derive_seed


class LRUPolicy(RecencyStackPolicy):
    """Least-recently-used: hits promote to MRU, fills insert at MRU."""

    name = "lru"


class FIFOPolicy(RecencyStackPolicy):
    """First-in-first-out: fills insert at MRU, hits do not promote."""

    name = "fifo"

    def touch(self, way: int, core: int) -> None:
        """Hits leave the insertion order untouched."""


class LIPPolicy(RecencyStackPolicy):
    """LRU-insertion policy: fills land at the LRU position.

    A line only survives if it is reused before the next fill, which
    protects the cache against thrashing working sets (Qureshi+, ISCA'07).
    """

    name = "lip"

    def insert(self, way: int, core: int, pc: int = 0) -> None:
        self.place(way, self.ways - 1)


class RandomPolicy(ReplacementPolicy):
    """Uniformly random victim selection, deterministic per set."""

    name = "random"

    def __init__(self, ways: int, seed: int = 0) -> None:
        super().__init__(ways)
        self._rng = random.Random(seed)

    def touch(self, way: int, core: int) -> None:
        """Random replacement keeps no hit state."""

    def victim(self) -> int:
        return self._rng.randrange(self.ways)

    def insert(self, way: int, core: int, pc: int = 0) -> None:
        """Random replacement keeps no fill state."""


class NRUPolicy(ReplacementPolicy):
    """Not-recently-used: one reference bit per way.

    Hits and fills set the bit; the victim is the lowest-numbered way
    with a clear bit.  When every bit is set, all bits (except the one
    just touched, per the classic formulation: all of them) are cleared.
    """

    name = "nru"

    def __init__(self, ways: int) -> None:
        super().__init__(ways)
        self._referenced = [False] * ways

    def touch(self, way: int, core: int) -> None:
        self._mark(way)

    def insert(self, way: int, core: int, pc: int = 0) -> None:
        self._mark(way)

    def _mark(self, way: int) -> None:
        self._referenced[way] = True
        if all(self._referenced):
            self._referenced = [False] * self.ways
            self._referenced[way] = True

    def victim(self) -> int:
        for way, referenced in enumerate(self._referenced):
            if not referenced:
                return way
        # _mark guarantees at least one clear bit, but stay total anyway.
        return 0


class TreePLRUPolicy(ReplacementPolicy):
    """Tree pseudo-LRU over a power-of-two number of ways.

    The classic binary-tree approximation: each internal node holds one
    bit pointing toward the less-recently-used half.  Touching a way
    flips the bits on its root path to point away from it; the victim is
    found by following the bits from the root.
    """

    name = "plru"

    def __init__(self, ways: int) -> None:
        super().__init__(ways)
        if not is_power_of_two(ways):
            raise ValueError(f"tree-PLRU requires power-of-two ways, got {ways}")
        # Implicit heap layout: node i has children 2i+1, 2i+2; there are
        # ways-1 internal nodes.
        self._bits = [False] * (ways - 1)

    def touch(self, way: int, core: int) -> None:
        self._point_away_from(way)

    def insert(self, way: int, core: int, pc: int = 0) -> None:
        self._point_away_from(way)

    def _point_away_from(self, way: int) -> None:
        node = 0
        low, high = 0, self.ways
        while high - low > 1:
            mid = (low + high) // 2
            went_right = way >= mid
            # Bit True means "LRU side is the right child".
            self._bits[node] = not went_right
            if went_right:
                node = 2 * node + 2
                low = mid
            else:
                node = 2 * node + 1
                high = mid

    def victim(self) -> int:
        node = 0
        low, high = 0, self.ways
        while high - low > 1:
            mid = (low + high) // 2
            if self._bits[node]:
                node = 2 * node + 2
                low = mid
            else:
                node = 2 * node + 1
                high = mid
        return low


def lru_factory() -> PolicyFactory:
    """Factory producing per-set LRU policies."""
    return lambda ways, set_index: LRUPolicy(ways)


def fifo_factory() -> PolicyFactory:
    """Factory producing per-set FIFO policies."""
    return lambda ways, set_index: FIFOPolicy(ways)


def lip_factory() -> PolicyFactory:
    """Factory producing per-set LIP policies."""
    return lambda ways, set_index: LIPPolicy(ways)


def nru_factory() -> PolicyFactory:
    """Factory producing per-set NRU policies."""
    return lambda ways, set_index: NRUPolicy(ways)


def plru_factory() -> PolicyFactory:
    """Factory producing per-set tree-PLRU policies."""
    return lambda ways, set_index: TreePLRUPolicy(ways)


def random_factory(seed: int = 0) -> PolicyFactory:
    """Factory producing per-set random policies with derived seeds."""
    return lambda ways, set_index: RandomPolicy(ways, derive_seed(seed, f"rand-set{set_index}"))
