"""PIPP — Promotion/Insertion Pseudo-Partitioning (Xie & Loh, ISCA 2009).

PIPP realizes a target partition *implicitly* through the recency stack
rather than through strict quotas:

* **Insertion**: a miss by core ``i`` inserts the new line at stack
  depth ``ways - pi_i`` (counting MRU = 0), where ``pi_i`` is core
  ``i``'s target allocation from UCP's lookahead over UMON curves — a
  core with a big allocation inserts near MRU, a core with a small one
  near LRU.
* **Promotion**: a hit promotes the line by a *single* position, with
  probability ``p_prom`` (3/4), instead of jumping to MRU.
* **Stream handling**: cores classified as streaming (high miss traffic
  with near-zero UMON utility) are demoted to a fixed insertion depth
  of ``pi_stream = 1`` and promote with a much lower probability,
  preventing scans from acquiring stack depth.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.cache.cache import LastLevelCache
from repro.cache.line import CacheLine
from repro.common.config import CacheGeometry
from repro.common.rng import derive_seed
from repro.partition.lookahead import lookahead_partition
from repro.partition.umon import UtilityMonitor

#: Probability a hit promotes a line by one stack position.
PROMOTION_PROBABILITY = 0.75
#: Promotion probability for lines of streaming cores.
STREAM_PROMOTION_PROBABILITY = 1.0 / 128.0
#: Insertion allocation used for streaming cores.
STREAM_ALLOCATION = 1
#: A core is streaming when its UMON hit/access ratio is below this.
STREAM_UTILITY_THRESHOLD = 0.02


class _PIPPSet:
    """One set: lines plus a priority stack (index 0 = highest priority)."""

    __slots__ = ("lines", "tag_to_way", "stack", "free_ways")

    def __init__(self, ways: int) -> None:
        self.lines = [CacheLine() for _ in range(ways)]
        self.tag_to_way: Dict[int, int] = {}
        self.stack: List[int] = []
        self.free_ways = list(range(ways - 1, -1, -1))


class PIPPCache(LastLevelCache):
    """Shared LLC under promotion/insertion pseudo-partitioning."""

    name = "pipp"

    def __init__(
        self,
        geometry: CacheGeometry,
        num_cores: int,
        repartition_period: int = 50_000,
        umon_sample_period: int = 32,
        seed: int = 0,
        stream_detection: bool = True,
    ) -> None:
        super().__init__(geometry)
        if num_cores <= 0:
            raise ValueError(f"num_cores must be positive, got {num_cores}")
        if geometry.ways < num_cores:
            raise ValueError(
                f"{geometry.ways}-way cache cannot allocate to {num_cores} cores"
            )
        self.num_cores = num_cores
        self.repartition_period = repartition_period
        self.stream_detection = stream_detection
        self.monitors = [
            UtilityMonitor(geometry, umon_sample_period) for _ in range(num_cores)
        ]
        base = geometry.ways // num_cores
        self.allocation = [base] * num_cores
        self.streaming = [False] * num_cores
        self.sets = [_PIPPSet(geometry.ways) for _ in range(geometry.num_sets)]
        self._set_mask = geometry.num_sets - 1
        self._index_bits = geometry.num_sets.bit_length() - 1
        self._rng = random.Random(derive_seed(seed, "pipp"))
        self._accesses_since_repartition = 0
        self.repartitions = 0

    # ------------------------------------------------------------------
    # LastLevelCache interface
    # ------------------------------------------------------------------

    def access(self, block_addr: int, core: int, pc: int, is_write: bool) -> bool:
        self.monitors[core].observe(block_addr)
        self._accesses_since_repartition += 1
        if self._accesses_since_repartition >= self.repartition_period:
            self.repartition()

        pipp_set = self.sets[block_addr & self._set_mask]
        tag = block_addr >> self._index_bits
        way = pipp_set.tag_to_way.get(tag, -1)
        if way >= 0:
            self._promote(pipp_set, way, core)
            if is_write:
                pipp_set.lines[way].dirty = True
            self.stats.record(core, hit=True)
            return True

        self.stats.record(core, hit=False)
        self._fill(pipp_set, tag, core, is_write)
        return False

    def repartition(self) -> List[int]:
        """Refresh target allocations and streaming classifications."""
        curves = [monitor.utility_curve() for monitor in self.monitors]
        self.allocation = lookahead_partition(curves, self.geometry.ways, min_ways=1)
        if self.stream_detection:
            for core, monitor in enumerate(self.monitors):
                accesses = monitor.accesses
                hits = accesses - monitor.misses
                self.streaming[core] = (
                    accesses >= 64 and hits / accesses < STREAM_UTILITY_THRESHOLD
                )
        for monitor in self.monitors:
            monitor.decay()
        self._accesses_since_repartition = 0
        self.repartitions += 1
        return self.allocation

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _promote(self, pipp_set: _PIPPSet, way: int, core: int) -> None:
        probability = (
            STREAM_PROMOTION_PROBABILITY
            if self.streaming[core]
            else PROMOTION_PROBABILITY
        )
        if self._rng.random() >= probability:
            return
        position = pipp_set.stack.index(way)
        if position > 0:
            pipp_set.stack[position], pipp_set.stack[position - 1] = (
                pipp_set.stack[position - 1],
                pipp_set.stack[position],
            )

    def _fill(self, pipp_set: _PIPPSet, tag: int, core: int, dirty: bool) -> None:
        if pipp_set.free_ways:
            way = pipp_set.free_ways.pop()
        else:
            way = pipp_set.stack.pop()
            victim = pipp_set.lines[way]
            del pipp_set.tag_to_way[victim.tag]
            self.stats.total.evictions += 1
            if victim.dirty:
                self.stats.total.writebacks += 1
        pipp_set.lines[way].fill(tag, core, dirty)
        pipp_set.tag_to_way[tag] = way
        allocation = (
            STREAM_ALLOCATION
            if self.stream_detection and self.streaming[core]
            else self.allocation[core]
        )
        depth = max(0, min(len(pipp_set.stack), self.geometry.ways - allocation))
        pipp_set.stack.insert(depth, way)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def occupancy_by_core(self) -> dict:
        counts: dict = {}
        for pipp_set in self.sets:
            for way in pipp_set.stack:
                owner = pipp_set.lines[way].core
                counts[owner] = counts.get(owner, 0) + 1
        return counts
