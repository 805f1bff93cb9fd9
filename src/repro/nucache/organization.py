"""The NUcache way organization: MainWays + DeliWays.

Each set's ways are split into ``M`` MainWays and ``D`` DeliWays:

* Every fill enters the MainWays, which run plain LRU among themselves.
* When the MainWay LRU victim was filled by a currently *selected*
  delinquent PC, it is retained in the DeliWays instead of leaving the
  cache; the DeliWays form a FIFO, so retaining into full DeliWays
  evicts the oldest retained line.
* A DeliWay hit promotes the line back to MRU of the MainWays (the
  paper's behaviour; the ``deli_replacement="lru"`` ablation refreshes
  the line inside the DeliWays instead).

Selection and profiling live in
:class:`~repro.nucache.controller.NUcacheController`; this module is
purely the data path.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Tuple

from repro.cache.cache import LastLevelCache
from repro.cache.line import CacheLine
from repro.cache.replacement.basic import LRUPolicy
from repro.common.config import CacheGeometry, NUcacheConfig
from repro.common.stats import AccessStats
from repro.common.errors import ConfigError
from repro.nucache.controller import NUcacheController, PCKey


class _DeliEntry:
    """A line resident in the DeliWays (tag is the OrderedDict key).

    ``seq`` is the global retention sequence number assigned when the
    line entered the DeliWays.  Under the paper's FIFO replacement the
    entries of a set are therefore strictly increasing in ``seq`` — an
    invariant :mod:`repro.check.invariants` verifies (the ``lru``
    ablation re-inserts hit entries at MRU, which legitimately breaks
    the ordering, so the check is FIFO-mode only).
    """

    __slots__ = ("core", "pc", "pc_slot", "dirty", "seq")

    def __init__(
        self, core: int, pc: int, pc_slot: int, dirty: bool, seq: int = 0
    ) -> None:
        self.core = core
        self.pc = pc
        self.pc_slot = pc_slot
        self.dirty = dirty
        self.seq = seq


class _NUcacheSet:
    """One set: M MainWays under LRU plus a D-entry DeliWay FIFO."""

    __slots__ = ("main_lines", "main_policy", "main_tag_to_way", "free_ways", "deli")

    def __init__(self, main_ways: int) -> None:
        self.main_lines = [CacheLine() for _ in range(main_ways)]
        self.main_policy = LRUPolicy(main_ways)
        self.main_tag_to_way: Dict[int, int] = {}
        self.free_ways = list(range(main_ways - 1, -1, -1))
        # tag -> _DeliEntry, insertion-ordered (FIFO head = oldest).
        self.deli: "OrderedDict[int, _DeliEntry]" = OrderedDict()


class NUCache(LastLevelCache):
    """Shared LLC with the NUcache organization.

    Exposes the standard :class:`LastLevelCache` interface; all NUcache
    machinery (profiling, selection, epochs) is internal.
    """

    name = "nucache"

    def __init__(self, geometry: CacheGeometry, config: NUcacheConfig) -> None:
        super().__init__(geometry)
        if config.deli_ways >= geometry.ways:
            raise ConfigError(
                f"deli_ways ({config.deli_ways}) must leave at least one MainWay "
                f"in a {geometry.ways}-way cache"
            )
        self.config = config
        self.main_ways = geometry.ways - config.deli_ways
        self.deli_ways = config.deli_ways
        self.controller = NUcacheController(
            config, deli_capacity=config.deli_ways * geometry.num_sets
        )
        self.sets = [_NUcacheSet(self.main_ways) for _ in range(geometry.num_sets)]
        self._set_mask = geometry.num_sets - 1
        self._index_bits = geometry.num_sets.bit_length() - 1
        #: Hits serviced by the DeliWays (the quantity selection maximizes).
        self.deli_hits = 0
        #: Lines retained into the DeliWays.
        self.retentions = 0
        #: DeliWay hits promoted back into the MainWays (stays 0 under
        #: the ``deli_replacement="lru"`` ablation, which refreshes the
        #: line in place instead).
        self.promotions = 0
        #: Retained lines pushed out by DeliWay FIFO overflow.  Closes
        #: the retention conservation law the sanitizer checks:
        #: ``retentions == promotions + deli_evictions + resident``.
        self.deli_evictions = 0

    # ------------------------------------------------------------------
    # LastLevelCache interface
    # ------------------------------------------------------------------

    def access(self, block_addr: int, core: int, pc: int, is_write: bool) -> bool:
        # MainWay-hit fast path: the LRU promotion (main_policy is
        # always plain LRU) and SharedCacheStats.record are inlined —
        # this branch services the overwhelming majority of LLC hits.
        set_index = block_addr & self._set_mask
        tag = block_addr >> self._index_bits
        nu_set = self.sets[set_index]

        way = nu_set.main_tag_to_way.get(tag, -1)
        if way >= 0:
            stack = nu_set.main_policy.stack
            if stack[0] != way:
                stack.remove(way)
                stack.insert(0, way)
            if is_write:
                nu_set.main_lines[way].dirty = True
            stats = self.stats
            stats.total.hits += 1
            per_core = stats.per_core.get(core)
            if per_core is None:
                per_core = stats.per_core.setdefault(core, AccessStats())
            per_core.hits += 1
            if self.controller.note_access():
                self.controller.rotate(self._remap_slots)
            return True

        # Not in the MainWays: this access is a potential "next use" of a
        # previously evicted line, whether it hits the DeliWays or not.
        controller = self.controller
        controller.profiler.on_reuse(set_index, block_addr)

        entry = nu_set.deli.pop(tag, None)
        if entry is not None:
            self.deli_hits += 1
            self.stats.record(core, hit=True)
            if is_write:
                entry.dirty = True
            if self.config.deli_replacement == "lru":
                # Ablation: keep the line in the DeliWays at MRU instead
                # of promoting it back to the MainWays.
                nu_set.deli[tag] = entry
            else:
                self.promotions += 1
                self._fill_main(
                    nu_set, set_index, tag, entry.core, entry.pc, entry.pc_slot, entry.dirty
                )
            if controller.note_access():
                controller.rotate(self._remap_slots)
            return True

        # Miss: SharedCacheStats.record inlined as on the hit path.
        stats = self.stats
        stats.total.misses += 1
        per_core = stats.per_core.get(core)
        if per_core is None:
            per_core = stats.per_core.setdefault(core, AccessStats())
        per_core.misses += 1
        self._fill_main(
            nu_set, set_index, tag, core, pc, controller.note_miss(core, pc),
            is_write,
        )
        if controller.note_access():
            controller.rotate(self._remap_slots)
        return False

    def end_of_interval(self) -> None:
        """Epochs are miss-driven; nothing to do on engine intervals."""

    def occupancy_by_core(self) -> dict:
        counts: dict = {}
        for nu_set in self.sets:
            for line in nu_set.main_lines:
                if line.valid:
                    counts[line.core] = counts.get(line.core, 0) + 1
            for entry in nu_set.deli.values():
                counts[entry.core] = counts.get(entry.core, 0) + 1
        return counts

    def snapshot_counters(self) -> dict:
        """Base counters plus the DeliWay retention/promotion counters."""
        counters = super().snapshot_counters()
        counters["fills"] = self.stats.total.misses  # every miss fills
        counters["deli_hits"] = self.deli_hits
        counters["retentions"] = self.retentions
        counters["promotions"] = self.promotions
        counters["deli_evictions"] = self.deli_evictions
        counters["epochs"] = self.controller.epochs_completed
        return counters

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _fill_main(self, nu_set: _NUcacheSet, set_index: int, tag: int,
                   core: int, pc: int, pc_slot: int, dirty: bool) -> None:
        """Install a line at MRU of the MainWays, evicting if needed.

        main_policy is always plain LRU, so its victim (stack bottom)
        and insert (move to MRU) are inlined as direct stack operations.
        """
        stack = nu_set.main_policy.stack
        if nu_set.free_ways:
            way = nu_set.free_ways.pop()
            stack.remove(way)
        else:
            way = stack[-1]
            self._evict_main(nu_set, set_index, way)
            del stack[-1]
        stack.insert(0, way)
        line = nu_set.main_lines[way]
        line.fill(tag, core, pc, dirty)
        line.pc_slot = pc_slot
        nu_set.main_tag_to_way[tag] = way

    def _evict_main(self, nu_set: _NUcacheSet, set_index: int, way: int) -> None:
        """Handle the MainWay victim: retain in DeliWays or evict."""
        victim = nu_set.main_lines[way]
        victim_addr = (victim.tag << self._index_bits) | set_index
        del nu_set.main_tag_to_way[victim.tag]
        controller = self.controller
        controller.profiler.on_eviction(set_index, victim_addr, victim.pc_slot)
        if self.deli_ways > 0 and controller.is_selected(victim.pc_slot):
            nu_set.deli[victim.tag] = _DeliEntry(
                victim.core, victim.pc, victim.pc_slot, victim.dirty,
                seq=self.retentions,
            )
            self.retentions += 1
            if len(nu_set.deli) > self.deli_ways:
                _old_tag, old_entry = nu_set.deli.popitem(last=False)
                self.deli_evictions += 1
                self._count_eviction(old_entry.dirty)
        else:
            self._count_eviction(victim.dirty)

    def _count_eviction(self, dirty: bool) -> None:
        self.stats.total.evictions += 1
        if dirty:
            self.stats.total.writebacks += 1

    def _remap_slots(self, new_table: Dict[PCKey, int]) -> None:
        """Rewrite every resident line's slot for a new candidate table.

        Software-simulator luxury: hardware would let slots go stale for
        one epoch; the remap keeps the model exact (DESIGN.md ablations).
        """
        for nu_set in self.sets:
            for line in nu_set.main_lines:
                if line.valid:
                    line.pc_slot = new_table.get((line.core, line.pc), -1)
            for entry in nu_set.deli.values():
                entry.pc_slot = new_table.get((entry.core, entry.pc), -1)

    # ------------------------------------------------------------------
    # Introspection (tests, reports)
    # ------------------------------------------------------------------

    def set_of(self, block_addr: int) -> _NUcacheSet:
        """The set a block maps to."""
        return self.sets[block_addr & self._set_mask]

    def split_address(self, block_addr: int) -> Tuple[int, int]:
        """Return ``(set_index, tag)`` for a block address."""
        return block_addr & self._set_mask, block_addr >> self._index_bits

    def resident_blocks(self) -> Iterator[Tuple[int, bool]]:
        """Iterate ``(block_addr, in_deliways)`` over all resident lines."""
        for set_index, nu_set in enumerate(self.sets):
            for line in nu_set.main_lines:
                if line.valid:
                    yield (line.tag << self._index_bits) | set_index, False
            for tag in nu_set.deli:
                yield (tag << self._index_bits) | set_index, True

    @property
    def occupancy(self) -> int:
        """Total resident lines (MainWays + DeliWays)."""
        return sum(
            len(nu_set.main_tag_to_way) + len(nu_set.deli) for nu_set in self.sets
        )

    def selection_report(self) -> List[PCKey]:
        """Currently selected (core, PC) pairs."""
        return self.controller.selected_keys()
