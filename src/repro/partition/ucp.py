"""UCP — Utility-based Cache Partitioning (Qureshi & Patt, MICRO 2006).

Way-partitions the shared LLC among cores.  Per-core UMONs measure each
core's utility curve; every repartitioning interval the lookahead
algorithm recomputes the per-core way quotas.  Enforcement is the
standard *replacement-based* scheme: on a miss by core ``i``,

* if some core is over its quota in the victim set, evict that core's
  LRU line (lazily reclaiming ways after a repartition),
* otherwise evict core ``i``'s own LRU line (keeping ``i`` at quota).

Lines are never migrated at repartition time; quotas converge lazily,
exactly as in the paper.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cache.cache import LastLevelCache
from repro.cache.line import CacheLine
from repro.common.config import CacheGeometry
from repro.partition.lookahead import lookahead_partition
from repro.partition.umon import UtilityMonitor


class _UCPSet:
    """One way-partitioned set: LRU stack annotated with line owners."""

    __slots__ = ("lines", "tag_to_way", "stack", "free_ways", "owner_count")

    def __init__(self, ways: int, num_cores: int) -> None:
        self.lines = [CacheLine() for _ in range(ways)]
        self.tag_to_way: Dict[int, int] = {}
        self.stack: List[int] = []  # valid ways only, MRU first
        self.free_ways = list(range(ways - 1, -1, -1))
        self.owner_count = [0] * num_cores


class UCPCache(LastLevelCache):
    """Shared LLC under utility-based way partitioning."""

    name = "ucp"

    def __init__(
        self,
        geometry: CacheGeometry,
        num_cores: int,
        repartition_period: int = 50_000,
        umon_sample_period: int = 32,
    ) -> None:
        super().__init__(geometry)
        if num_cores <= 0:
            raise ValueError(f"num_cores must be positive, got {num_cores}")
        if geometry.ways < num_cores:
            raise ValueError(
                f"{geometry.ways}-way cache cannot guarantee a way to {num_cores} cores"
            )
        self.num_cores = num_cores
        self.repartition_period = repartition_period
        self.monitors = [
            UtilityMonitor(geometry, umon_sample_period) for _ in range(num_cores)
        ]
        self.allocation = self._even_allocation()
        self.sets = [_UCPSet(geometry.ways, num_cores) for _ in range(geometry.num_sets)]
        self._set_mask = geometry.num_sets - 1
        self._index_bits = geometry.num_sets.bit_length() - 1
        self._accesses_since_repartition = 0
        self.repartitions = 0

    def _even_allocation(self) -> List[int]:
        base = self.geometry.ways // self.num_cores
        allocation = [base] * self.num_cores
        for core in range(self.geometry.ways - base * self.num_cores):
            allocation[core] += 1
        return allocation

    # ------------------------------------------------------------------
    # LastLevelCache interface
    # ------------------------------------------------------------------

    def access(self, block_addr: int, core: int, pc: int, is_write: bool) -> bool:
        self.monitors[core].observe(block_addr)
        self._accesses_since_repartition += 1
        if self._accesses_since_repartition >= self.repartition_period:
            self.repartition()

        ucp_set = self.sets[block_addr & self._set_mask]
        tag = block_addr >> self._index_bits
        way = ucp_set.tag_to_way.get(tag, -1)
        if way >= 0:
            ucp_set.stack.remove(way)
            ucp_set.stack.insert(0, way)
            if is_write:
                ucp_set.lines[way].dirty = True
            self.stats.record(core, hit=True)
            return True

        self.stats.record(core, hit=False)
        self._fill(ucp_set, tag, core, is_write)
        return False

    def repartition(self) -> List[int]:
        """Recompute quotas from the UMON curves; returns the new quotas."""
        curves = [monitor.utility_curve() for monitor in self.monitors]
        self.allocation = lookahead_partition(curves, self.geometry.ways, min_ways=1)
        for monitor in self.monitors:
            monitor.decay()
        self._accesses_since_repartition = 0
        self.repartitions += 1
        return self.allocation

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _fill(self, ucp_set: _UCPSet, tag: int, core: int, dirty: bool) -> None:
        if ucp_set.free_ways:
            way = ucp_set.free_ways.pop()
        else:
            way = self._choose_victim(ucp_set, core)
            victim = ucp_set.lines[way]
            del ucp_set.tag_to_way[victim.tag]
            ucp_set.owner_count[victim.core] -= 1
            ucp_set.stack.remove(way)
            self.stats.total.evictions += 1
            if victim.dirty:
                self.stats.total.writebacks += 1
        ucp_set.lines[way].fill(tag, core, dirty)
        ucp_set.tag_to_way[tag] = way
        ucp_set.owner_count[core] += 1
        ucp_set.stack.insert(0, way)

    def _choose_victim(self, ucp_set: _UCPSet, requester: int) -> int:
        """Replacement-based quota enforcement (see module docstring)."""
        over_quota = self._lru_way_of_over_quota_core(ucp_set, exclude=requester)
        if over_quota is not None:
            return over_quota
        own = self._lru_way_of_core(ucp_set, requester)
        if own is not None:
            return own
        # Requester holds nothing here and nobody is over quota (can
        # happen right after a repartition): fall back to global LRU.
        return ucp_set.stack[-1]

    def _lru_way_of_over_quota_core(self, ucp_set: _UCPSet, exclude: int) -> Optional[int]:
        for way in reversed(ucp_set.stack):
            owner = ucp_set.lines[way].core
            if owner != exclude and ucp_set.owner_count[owner] > self.allocation[owner]:
                return way
        return None

    def _lru_way_of_core(self, ucp_set: _UCPSet, core: int) -> Optional[int]:
        for way in reversed(ucp_set.stack):
            if ucp_set.lines[way].core == core:
                return way
        return None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def occupancy_by_core(self) -> dict:
        counts: dict = {}
        for ucp_set in self.sets:
            for core, count in enumerate(ucp_set.owner_count):
                if count:
                    counts[core] = counts.get(core, 0) + count
        return counts

    def set_of(self, block_addr: int) -> _UCPSet:
        """The set a block maps to (for tests)."""
        return self.sets[block_addr & self._set_mask]
