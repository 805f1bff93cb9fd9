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

Storage follows :class:`~repro.cache.set_.CacheSet`: the MainWays of a
set are slot lists (a tag index, an MRU-first recency stack, a free
list and one list per line field), not one object per way, so the
access path touches list elements instead of chasing objects.

Selection and profiling live in
:class:`~repro.nucache.controller.NUcacheController`.  :meth:`NUCache.access`
runs a whole access in one frame: it does the controller's epoch and
miss accounting and the Next-Use profiler's history and log updates
itself, as literal copies of ``note_access``/``note_miss`` and
``on_reuse``/``on_eviction``, which stay the reference bodies (the same
way ``CacheSet.lookup`` inlines ``LRUPolicy.touch``).  Selection itself
(``rotate``) is still a call, once per epoch.

The access path has three copies, and a change to NUcache's semantics
touches all three: the reference methods, :meth:`NUCache.access` (the
scalar loop's, and any engine's over another memory model or a
subclass), and :func:`repro.sim.vector._replay_nucache`, the hybrid
replay's frame for a plain ``NUCache`` over fixed-latency memory, which
holds the body of ``access`` inside its schedule loop.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Tuple

from repro.cache.cache import LastLevelCache
from repro.cache.line import NO_PC_SLOT
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
    """One set: M MainWays under LRU plus a D-entry DeliWay FIFO.

    The MainWays are kept as :class:`~repro.cache.set_.CacheSet` keeps
    its ways: ``tag_to_way`` indexes the valid ways, ``stack`` is the LRU
    recency stack over all M ways (MRU first), and ``free`` holds the
    ways never filled, highest first so ``pop()`` hands out way 0 first.
    A way is valid exactly when the tag index names it, that is when it
    is not free (NUcache never invalidates a line).  ``tags``, ``dirty``,
    ``cores``, ``pcs`` and ``slots`` hold each way's line: its tag, dirty
    bit, filling core and PC, and the candidate slot of that (core, PC).
    """

    __slots__ = (
        "tag_to_way", "stack", "free", "tags", "dirty", "cores", "pcs", "slots",
        "deli",
    )

    def __init__(self, main_ways: int) -> None:
        self.tag_to_way: Dict[int, int] = {}
        self.stack = list(range(main_ways))
        self.free = list(range(main_ways - 1, -1, -1))
        self.tags = [0] * main_ways
        self.dirty = [False] * main_ways
        self.cores = [0] * main_ways
        self.pcs = [0] * main_ways
        self.slots = [NO_PC_SLOT] * main_ways
        # tag -> _DeliEntry, insertion-ordered (FIFO head = oldest).
        self.deli: "OrderedDict[int, _DeliEntry]" = OrderedDict()

    def valid_ways(self) -> List[int]:
        """The MainWays holding a line, in way order."""
        return sorted(self.tag_to_way.values())


class NUCache(LastLevelCache):
    """Shared LLC with the NUcache organization.

    Exposes the standard :class:`LastLevelCache` interface; all NUcache
    machinery (profiling, selection, epochs) is internal.
    """

    name = "nucache"

    #: MainWay victim choice for a full set: ``None`` takes the LRU way;
    #: :class:`~repro.nucache.partitioned.PartitionedNUCache` overrides it
    #: with its quota-aware choice, ``(set, filling core) -> way``.
    _choose_victim = None

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
        self._deli_refresh = config.deli_replacement == "lru"
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
        """Service one LLC access; returns whether it hit.

        The hybrid replay runs a copy of this body inside its schedule
        loop (:func:`repro.sim.vector._replay_nucache`) for a plain
        ``NUCache`` over fixed-latency memory; a change here must be made
        there too.
        """
        # One frame per access, in this order: MainWay hit; else the
        # profiler's reuse lookup, then a DeliWay hit (promotion, or the
        # lru ablation's refresh) or a miss; then the MainWay fill with
        # its victim's profiling and retention or eviction; last the
        # epoch count.  SharedCacheStats.record is inlined on every
        # branch.
        set_index = block_addr & self._set_mask
        tag = block_addr >> self._index_bits
        nu_set = self.sets[set_index]
        controller = self.controller
        stats = self.stats

        tag_to_way = nu_set.tag_to_way
        way = tag_to_way.get(tag, -1)
        if way >= 0:
            # MainWay hit: LRUPolicy.touch inlined (move to MRU).
            stack = nu_set.stack
            if stack[0] != way:
                stack.remove(way)
                stack.insert(0, way)
            if is_write:
                nu_set.dirty[way] = True
            stats.total.hits += 1
            per_core = stats.per_core.get(core)
            if per_core is None:
                per_core = stats.per_core.setdefault(core, AccessStats())
            per_core.hits += 1
            # NUcacheController.note_access
            controller._accesses_this_epoch += 1
            if (
                controller._misses_this_epoch >= controller._epoch_target
                or controller._accesses_this_epoch >= controller._access_target
            ):
                controller.rotate(self._remap_slots)
            return True

        # Not in the MainWays: this access is a potential "next use" of a
        # previously evicted line, whether it hits the DeliWays or not.
        # NextUseProfiler.on_reuse
        profiler = controller.profiler
        sample_period = profiler.sample_period
        if not set_index % sample_period:
            position = profiler._history.pop(block_addr, None)
            if position is not None:
                reuses = profiler._reuses
                reuses.append(position)
                reuses.append(len(profiler._log))

        per_core = stats.per_core.get(core)
        if per_core is None:
            per_core = stats.per_core.setdefault(core, AccessStats())
        deli = nu_set.deli
        entry = deli.pop(tag, None)
        if entry is not None:
            self.deli_hits += 1
            stats.total.hits += 1
            per_core.hits += 1
            if is_write:
                entry.dirty = True
            if self._deli_refresh:
                # Ablation: keep the line in the DeliWays at MRU instead
                # of promoting it back to the MainWays.
                deli[tag] = entry
                # NUcacheController.note_access
                controller._accesses_this_epoch += 1
                if (
                    controller._misses_this_epoch >= controller._epoch_target
                    or controller._accesses_this_epoch >= controller._access_target
                ):
                    controller.rotate(self._remap_slots)
                return True
            self.promotions += 1
            hit = True
            fill_core = entry.core
            fill_pc = entry.pc
            fill_slot = entry.pc_slot
            fill_dirty = entry.dirty
        else:
            stats.total.misses += 1
            per_core.misses += 1
            # NUcacheController.note_miss
            key = (core, pc)
            miss_counts = controller._miss_counts
            miss_counts[key] = miss_counts.get(key, 0) + 1
            controller._misses_this_epoch += 1
            hit = False
            fill_core = core
            fill_pc = pc
            fill_slot = controller._slot_of.get(key, -1)
            fill_dirty = is_write

        # Fill at MainWay MRU.
        stack = nu_set.stack
        free = nu_set.free
        if free:
            way = free.pop()
            stack.remove(way)
        else:
            choose_victim = self._choose_victim
            if choose_victim is None:
                way = stack.pop()  # LRUPolicy.victim: the stack bottom
            else:
                way = choose_victim(nu_set, fill_core)
                stack.remove(way)
            victim_tag = nu_set.tags[way]
            del tag_to_way[victim_tag]
            victim_slot = nu_set.slots[way]
            # NextUseProfiler.on_eviction, less its move_to_end: the
            # victim's address is never in the history here (its fill
            # ran the reuse lookup above, which popped it), so the
            # insert already puts it last.
            if victim_slot >= 0 and not set_index % sample_period:
                profiler._evictions[victim_slot] += 1
                log = profiler._log
                history = profiler._history
                victim_addr = (victim_tag << self._index_bits) | set_index
                history[victim_addr] = len(log)
                log.append(victim_slot)
                if len(history) > profiler.history_capacity:
                    history.popitem(last=False)
            # NUcacheController.is_selected: retain, or leave the cache.
            if self.deli_ways > 0 and victim_slot in controller._selected:
                deli[victim_tag] = _DeliEntry(
                    nu_set.cores[way], nu_set.pcs[way], victim_slot,
                    nu_set.dirty[way], seq=self.retentions,
                )
                self.retentions += 1
                if len(deli) > self.deli_ways:
                    _old_tag, old_entry = deli.popitem(last=False)
                    self.deli_evictions += 1
                    stats.total.evictions += 1
                    if old_entry.dirty:
                        stats.total.writebacks += 1
            else:
                stats.total.evictions += 1
                if nu_set.dirty[way]:
                    stats.total.writebacks += 1
        stack.insert(0, way)
        nu_set.tags[way] = tag
        nu_set.dirty[way] = fill_dirty
        nu_set.cores[way] = fill_core
        nu_set.pcs[way] = fill_pc
        nu_set.slots[way] = fill_slot
        tag_to_way[tag] = way

        # NUcacheController.note_access
        controller._accesses_this_epoch += 1
        if (
            controller._misses_this_epoch >= controller._epoch_target
            or controller._accesses_this_epoch >= controller._access_target
        ):
            controller.rotate(self._remap_slots)
        return hit

    def occupancy_by_core(self) -> dict:
        counts: dict = {}
        for nu_set in self.sets:
            cores = nu_set.cores
            for way in nu_set.valid_ways():
                counts[cores[way]] = counts.get(cores[way], 0) + 1
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

    def _remap_slots(self, new_table: Dict[PCKey, int]) -> None:
        """Rewrite every resident line's slot for a new candidate table.

        Software-simulator luxury: hardware would let slots go stale for
        one epoch; the remap keeps the model exact (DESIGN.md ablations).
        """
        slot_of = new_table.get
        for nu_set in self.sets:
            cores, pcs, slots = nu_set.cores, nu_set.pcs, nu_set.slots
            for way in nu_set.tag_to_way.values():
                slots[way] = slot_of((cores[way], pcs[way]), -1)
            for entry in nu_set.deli.values():
                entry.pc_slot = slot_of((entry.core, entry.pc), -1)

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
            for way in nu_set.valid_ways():
                yield (nu_set.tags[way] << self._index_bits) | set_index, False
            for tag in nu_set.deli:
                yield (tag << self._index_bits) | set_index, True

    @property
    def occupancy(self) -> int:
        """Total resident lines (MainWays + DeliWays)."""
        return sum(
            len(nu_set.tag_to_way) + len(nu_set.deli) for nu_set in self.sets
        )

    def selection_report(self) -> List[PCKey]:
        """Currently selected (core, PC) pairs."""
        return self.controller.selected_keys()
