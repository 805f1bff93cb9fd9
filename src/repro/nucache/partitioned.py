"""Partitioned NUcache — the paper's future-work hybrid (extension).

NUcache and UCP attack different failure modes: UCP stops *inter-core*
capacity theft with way quotas, NUcache rescues *post-eviction reuse*
of selected PCs.  The hybrid applies both: the MainWays are way-
partitioned among cores by UMON + lookahead (exactly as in
:mod:`repro.partition.ucp`), while the DeliWays keep NUcache's
cost-benefit PC retention across cores.

Concretely, the only change to NUcache's data path is MainWay victim
choice (:meth:`PartitionedNUCache._choose_victim`, which the fused
:meth:`NUCache.access` calls when a set is full): instead of global
LRU, pick the LRU line of an over-quota core (or of the requester when
nobody is over).  Everything downstream — retention of selected
victims, the profiler, selection epochs — is inherited unchanged.
"""

from __future__ import annotations

from typing import List

from repro.common.config import CacheGeometry, NUcacheConfig
from repro.nucache.organization import NUCache, _NUcacheSet
from repro.partition.lookahead import lookahead_partition
from repro.partition.umon import UtilityMonitor


class PartitionedNUCache(NUCache):
    """UCP-partitioned MainWays + NUcache DeliWays."""

    name = "nucache-ucp"

    def __init__(
        self,
        geometry: CacheGeometry,
        config: NUcacheConfig,
        num_cores: int,
        repartition_period: int = 50_000,
        umon_sample_period: int = 32,
    ) -> None:
        super().__init__(geometry, config)
        if num_cores <= 0:
            raise ValueError(f"num_cores must be positive, got {num_cores}")
        if self.main_ways < num_cores:
            raise ValueError(
                f"{self.main_ways} MainWays cannot guarantee a way to "
                f"{num_cores} cores"
            )
        self.num_cores = num_cores
        self.repartition_period = repartition_period
        self.monitors = [
            UtilityMonitor(geometry, umon_sample_period) for _ in range(num_cores)
        ]
        base = self.main_ways // num_cores
        self.allocation = [base] * num_cores
        self._accesses_since_repartition = 0
        self.repartitions = 0

    def access(self, block_addr: int, core: int, pc: int, is_write: bool) -> bool:
        self.monitors[core].observe(block_addr)
        self._accesses_since_repartition += 1
        if self._accesses_since_repartition >= self.repartition_period:
            self.repartition()
        return super().access(block_addr, core, pc, is_write)

    def repartition(self) -> List[int]:
        """Recompute MainWay quotas from the UMON curves.

        The UMON curves describe utility up to the *total* associativity;
        they are truncated to the MainWay count since that is what is
        being partitioned (the DeliWays are governed by PC selection,
        not by core quotas).
        """
        curves = [
            monitor.utility_curve()[: self.main_ways + 1]
            for monitor in self.monitors
        ]
        self.allocation = lookahead_partition(curves, self.main_ways, min_ways=1)
        for monitor in self.monitors:
            monitor.decay()
        self._accesses_since_repartition = 0
        self.repartitions += 1
        return self.allocation

    def _choose_victim(self, nu_set: _NUcacheSet, requester: int) -> int:
        """UCP-style replacement-based enforcement over a full set's MainWays.

        The LRU line of a core over its quota (other than the
        requester), else the requester's own LRU line, else the LRU line.
        """
        cores = nu_set.cores
        allocation = self.allocation
        over = [
            core for core in range(self.num_cores)
            if core != requester and cores.count(core) > allocation[core]
        ]
        stack = nu_set.stack
        if over:
            for way in reversed(stack):
                if cores[way] in over:
                    return way
        for way in reversed(stack):
            if cores[way] == requester:
                return way
        return stack[-1]
