"""Set-associative cache and the shared-LLC interface.

:class:`LastLevelCache` is the abstract interface every shared-LLC
organization implements (plain policies, UCP, PIPP, NUcache); the
multicore engine only ever talks to this interface.
:class:`SetAssociativeCache` is the concrete policy-parameterized cache
used for every non-partitioned organization and for the private levels.
"""

from __future__ import annotations

import weakref
from abc import ABC, abstractmethod
from typing import Iterator, List, Tuple

from repro.cache.line import CacheLine
from repro.cache.replacement.base import PolicyFactory, ReplacementPolicy
from repro.cache.replacement.basic import LRUPolicy
from repro.cache.set_ import CacheSet
from repro.common.config import CacheGeometry
from repro.common.stats import AccessStats, SharedCacheStats


class LastLevelCache(ABC):
    """Interface between the simulator engine and any LLC organization."""

    #: Organization name used in reports ("lru", "nucache", "ucp", ...).
    name = "abstract"

    def __init__(self, geometry: CacheGeometry) -> None:
        self.geometry = geometry
        self.stats = SharedCacheStats()

    @abstractmethod
    def access(self, block_addr: int, core: int, pc: int, is_write: bool) -> bool:
        """Service one access; returns True on hit.

        Misses are assumed to be filled from memory by the time the call
        returns (no MSHR modelling — the timing model charges a fixed
        memory latency instead).
        """

    def end_of_interval(self) -> None:
        """Hook called periodically by the engine (epoch boundaries).

        Organizations with epoch behaviour (NUcache, UCP) override this;
        the default does nothing.
        """

    def occupancy_by_core(self) -> dict:
        """Lines currently held per core (for occupancy reports)."""
        return {}

    def snapshot_counters(self) -> dict:
        """Current policy counters, for tracing.

        Read-only and cheap (no per-set walks): a traced engine run
        records one snapshot when it ends (the ``llc.counters`` sample),
        without touching the access path.  Organizations with extra
        machinery (NUcache's DeliWay retention/promotion counters)
        extend the dict.
        """
        total = self.stats.total
        return {
            "hits": total.hits,
            "misses": total.misses,
            "evictions": total.evictions,
            "writebacks": total.writebacks,
        }


class _UnbuiltSets:
    """A :class:`SetAssociativeCache`'s ``sets`` before they are built.

    A plain-LRU cache keeps this until something first reads its sets:
    the full-vector engine resolves a plain-LRU LLC without reading
    them, so the cache defers building them (2048
    :class:`CacheSet`/:class:`LRUPolicy` pairs for an 8-core LLC).
    Every other policy builds its sets at construction.  The first
    index, iteration or ``len`` builds the list through
    :meth:`SetAssociativeCache.build_sets`, which puts it in the
    cache's ``sets``: from then on the access path indexes a plain
    list, with no check of its own.
    """

    __slots__ = ("cache", "factory", "first")

    def __init__(self, cache: "SetAssociativeCache", factory: PolicyFactory,
                 first: ReplacementPolicy) -> None:
        # Weak: the cache holds this object, and a cycle would keep a
        # cache that never built its sets alive until a full collection.
        self.cache = weakref.ref(cache)
        self.factory = factory
        #: Set 0's policy, made at construction to learn the policy type.
        self.first = first

    def __getitem__(self, index: int) -> CacheSet:
        return self.cache().build_sets()[index]

    def __iter__(self) -> Iterator[CacheSet]:
        return iter(self.cache().build_sets())

    def __len__(self) -> int:
        return len(self.cache().build_sets())


class SetAssociativeCache(LastLevelCache):
    """A cache whose behaviour is fully defined by a replacement policy.

    A plain-LRU cache builds its sets on first use (see
    :class:`_UnbuiltSets`); every other policy's sets are built here.
    """

    def __init__(self, geometry: CacheGeometry, policy_factory: PolicyFactory, name: str) -> None:
        super().__init__(geometry)
        self.name = name
        first = policy_factory(geometry.ways, 0)
        # Plain LRU (exact type: subclasses change semantics) never
        # bypasses, so the per-miss should_bypass call can be skipped.
        self._plain_lru = type(first) is LRUPolicy
        self.sets: List[CacheSet] = _UnbuiltSets(  # type: ignore[assignment]
            self, policy_factory, first
        )
        if not self._plain_lru:
            self.build_sets()
        self._set_mask = geometry.num_sets - 1
        self._index_bits = geometry.num_sets.bit_length() - 1
        #: Lines installed (misses that were not bypassed).
        self.fills = 0

    def build_sets(self) -> List[CacheSet]:
        """The sets as a list, built first if they are still deferred."""
        sets = self.sets
        if type(sets) is _UnbuiltSets:
            ways, factory = self.geometry.ways, sets.factory
            self.sets = sets = [CacheSet(ways, sets.first)] + [
                CacheSet(ways, factory(ways, index))
                for index in range(1, self.geometry.num_sets)
            ]
        return sets

    def access(self, block_addr: int, core: int, pc: int, is_write: bool) -> bool:
        """Service one access; returns True on hit.

        One combined set lookup and inlined stats bookkeeping
        (``SharedCacheStats.record`` unrolled) instead of the
        find/touch/record call chain.  :meth:`CoreModel.finish_pass
        <repro.sim.core.CoreModel.finish_pass>` inlines a literal copy
        of this body, with the LRU branches of :meth:`CacheSet.lookup`
        and :meth:`CacheSet.allocate`, for the private L1 and L2: a
        change here must be made there too.
        """
        cache_set = self.sets[block_addr & self._set_mask]
        tag = block_addr >> self._index_bits
        way = cache_set.lookup(tag, core, is_write)
        stats = self.stats
        per_core = stats.per_core.get(core)
        if per_core is None:
            per_core = stats.per_core.setdefault(core, AccessStats())
        total = stats.total
        if way >= 0:
            total.hits += 1
            per_core.hits += 1
            return True
        total.misses += 1
        per_core.misses += 1
        if self._plain_lru or not cache_set.policy.should_bypass(core, pc):
            self.fills += 1
            evicted = cache_set.allocate(tag, core, pc, is_write)
            if evicted is not None:
                total.evictions += 1
                if evicted[1]:
                    total.writebacks += 1
        return False

    def snapshot_counters(self) -> dict:
        """Base counters plus the fill count (misses minus bypasses)."""
        counters = super().snapshot_counters()
        counters["fills"] = self.fills
        return counters

    def probe(self, block_addr: int) -> bool:
        """Check presence without disturbing any state."""
        cache_set = self.sets[block_addr & self._set_mask]
        return cache_set.find(block_addr >> self._index_bits) >= 0

    def invalidate(self, block_addr: int) -> bool:
        """Drop a block if present; returns whether it was present."""
        cache_set = self.sets[block_addr & self._set_mask]
        return cache_set.invalidate(block_addr >> self._index_bits)

    def set_of(self, block_addr: int) -> CacheSet:
        """The set a block address maps to (for tests and monitors)."""
        return self.sets[block_addr & self._set_mask]

    def split_address(self, block_addr: int) -> Tuple[int, int]:
        """Return ``(set_index, tag)`` of a block address."""
        return block_addr & self._set_mask, block_addr >> self._index_bits

    def valid_lines(self) -> Iterator[Tuple[int, CacheLine]]:
        """Iterate ``(set_index, line)`` over every valid line."""
        for index, cache_set in enumerate(self.sets):
            for line in cache_set.valid_lines():
                yield index, line

    def occupancy_by_core(self) -> dict:
        counts: dict = {}
        for cache_set in self.sets:
            for core in cache_set.valid_cores():
                counts[core] = counts.get(core, 0) + 1
        return counts

    @property
    def occupancy(self) -> int:
        """Total valid lines in the cache."""
        return sum(cache_set.occupancy for cache_set in self.sets)


def make_private_cache(geometry: CacheGeometry, policy_factory: PolicyFactory,
                       name: str) -> SetAssociativeCache:
    """Convenience constructor for private L1/L2 caches (always LRU-family)."""
    return SetAssociativeCache(geometry, policy_factory, name)


#: Result of a hierarchy access: the level that serviced it.
LEVEL_L1 = "l1"
LEVEL_L2 = "l2"
LEVEL_LLC = "llc"
LEVEL_MEMORY = "memory"


class PrivateHierarchy:
    """A core's private L1+L2 in front of a shared LLC.

    Non-inclusive, no back-invalidation: each level is looked up and
    filled independently, which matches the paper's use of the LLC as a
    victim of the private levels' filtering without modelling coherence.
    """

    __slots__ = ("l1", "l2", "core_id")

    def __init__(self, l1: SetAssociativeCache, l2: SetAssociativeCache, core_id: int) -> None:
        self.l1 = l1
        self.l2 = l2
        self.core_id = core_id

    def access(self, block_addr: int, pc: int, is_write: bool,
               llc: LastLevelCache) -> str:
        """Walk the hierarchy; returns the servicing level constant."""
        core = self.core_id
        if self.l1.access(block_addr, core, pc, is_write):
            return LEVEL_L1
        if self.l2.access(block_addr, core, pc, is_write):
            return LEVEL_L2
        if llc.access(block_addr, core, pc, is_write):
            return LEVEL_LLC
        return LEVEL_MEMORY
