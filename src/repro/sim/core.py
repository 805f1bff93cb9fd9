"""Per-core model: private caches, local clock, trace cursor.

Each core replays its trace in order through its private L1 and L2 into
the shared LLC.  The core is in-order with a one-access-at-a-time memory
system: an access costs ``instruction_gap`` compute cycles (CPI = 1 on
non-memory instructions) plus the latency of the level that serviced it.
This is the standard trace-driven approximation for LLC-policy studies —
see DESIGN.md's substitution table.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.cache.cache import (
    LEVEL_L1,
    LEVEL_L2,
    LEVEL_LLC,
    LEVEL_MEMORY,
    SetAssociativeCache,
)
from repro.cache.replacement.basic import lru_factory
from repro.common.addr import log2_exact
from repro.common.config import LatencyConfig, SystemConfig
from repro.common.stats import AccessStats
from repro.prefetch.prefetchers import PREFETCH_PC, Prefetcher
from repro.sim.memory import FixedLatencyMemory
from repro.workloads.trace import Trace

#: What a core calls per LLC access, ``access(block, core, pc, is_write)``
#: returning whether it hit: the LLC's own ``access``, or an invariant
#: checker's counting wrapper around it (:class:`repro.sim.engine.RunWatch`).
LLCAccess = Callable[[int, int, int, bool], bool]


class CoreModel:
    """One core: trace cursor, private hierarchy, local clock, counters.

    The first ``warmup_accesses`` accesses warm the caches without being
    measured (the paper's warm-then-measure methodology): statistics and
    the IPC window start after them.
    """

    def __init__(self, core_id: int, trace: Trace, config: SystemConfig,
                 warmup_accesses: int = 0,
                 prefetcher: Optional[Prefetcher] = None) -> None:
        if not 0 <= warmup_accesses < len(trace):
            raise ValueError(
                f"warmup_accesses must be in [0, {len(trace)}), got {warmup_accesses}"
            )
        self.core_id = core_id
        self.trace = trace
        self._trace_length = len(trace)
        self.warmup_accesses = warmup_accesses
        self.prefetcher = prefetcher
        self.config = config
        # The private L1 and L2, built with the per-access lists by the
        # first step() (see _load_trace): the batched engine resolves the
        # private levels itself and never steps a core.
        self.l1: Optional[SetAssociativeCache] = None
        self.l2: Optional[SetAssociativeCache] = None
        self.latency: LatencyConfig = config.latency
        # Hit latencies flattened out of the frozen dataclass: step()
        # reads one per access and dataclass attribute access is two
        # lookups deep.
        self._lat_l1 = config.latency.l1_hit
        self._lat_l2 = config.latency.l2_hit
        self._lat_llc = config.latency.llc_hit
        self.gap = trace.instruction_gap

        self._block_shift = log2_exact(config.block_bytes)
        # Per-access python lists of the trace, built with the private
        # caches by the first step().
        self._blocks: Optional[List[int]] = None
        self._pcs: List[int] = []
        self._writes: List[bool] = []

        self.cursor = 0
        self.clock = 0
        self.level_counts: Dict[str, int] = {
            LEVEL_L1: 0, LEVEL_L2: 0, LEVEL_LLC: 0, LEVEL_MEMORY: 0,
        }
        #: Clock at which the first full pass over the trace completed
        #: (-1 while still in the first pass).
        self.completion_clock = -1
        #: Clock at which the warmup window ended (0 if no warmup).
        self.warmup_clock = 0
        self.passes = 0

    @property
    def trace_length(self) -> int:
        """Accesses per pass."""
        return self._trace_length

    @property
    def first_pass_done(self) -> bool:
        """Whether the measured (first) pass has completed."""
        return self.completion_clock >= 0

    @property
    def measured_accesses(self) -> int:
        """Accesses in the measured window of one pass."""
        return self.trace_length - self.warmup_accesses

    @property
    def instructions(self) -> int:
        """Instructions represented by the measured window of one pass."""
        return self.measured_accesses * (self.gap + 1)

    def step(self, access: LLCAccess, memory: FixedLatencyMemory) -> str:
        """Execute the next access; returns the servicing level.

        ``access`` is the only thing called on the LLC: once for an
        access that misses the L2, and once per prefetch fill.  Advances
        the local clock by the compute gap plus the access latency.  The
        last access of a pass sets :attr:`completion_clock` and wraps the
        cursor.  The engine never steps a finished core again (see
        DESIGN.md's methodology deviations); a direct caller that does
        replays the trace with the statistics frozen at the first pass.

        This is the reference body of one access.  The engine's heap
        loop calls it; a lone pending core runs :meth:`finish_pass`, a
        one-frame copy of this body repeated to the end of the pass,
        which a change here must follow.
        """
        index = self.cursor
        blocks = self._blocks
        if blocks is None:
            blocks = self._load_trace()
        block = blocks[index]
        pc = self._pcs[index]
        is_write = self._writes[index]
        core = self.core_id

        if self.l1.access(block, core, pc, is_write):
            level = LEVEL_L1
            latency = self._lat_l1
        elif self.l2.access(block, core, pc, is_write):
            level = LEVEL_L2
            latency = self._lat_l2
        elif access(block, core, pc, is_write):
            level = LEVEL_LLC
            latency = self._lat_llc
        else:
            level = LEVEL_MEMORY
            latency = memory.service(self.clock)

        if self.prefetcher is not None and level != LEVEL_L1:
            self._issue_prefetches(block, pc, level == LEVEL_MEMORY, access)

        self.clock += self.gap + latency
        if self.completion_clock < 0 and index >= self.warmup_accesses:
            self.level_counts[level] += 1

        self.cursor = index + 1
        if self.cursor == self.warmup_accesses and self.passes == 0:
            self.warmup_clock = self.clock
        if self.cursor >= self._trace_length:
            self.cursor = 0
            self.passes += 1
            if self.completion_clock < 0:
                self.completion_clock = self.clock
        return level

    def finish_pass(self, access: LLCAccess, memory: FixedLatencyMemory) -> None:
        """Run the rest of the first pass in one frame.

        The same state changes as calling :meth:`step` until
        :attr:`first_pass_done`; the engine's loop for a lone pending
        core (every single-core run, and the tail of a multicore one).
        The trace lists, the private caches' set lists, masks and
        latencies, the clock and the counters are locals.  The L1 and
        L2 (always plain LRU) are walked by literal copies of the LRU
        branches of :meth:`CacheSet.lookup
        <repro.cache.set_.CacheSet.lookup>` and :meth:`CacheSet.allocate
        <repro.cache.set_.CacheSet.allocate>` with
        :meth:`SetAssociativeCache.access`'s stats bookkeeping; the
        level counts and the private caches' stats and fill counts are
        written back before it returns.  ``access``, the memory model
        and the prefetcher are called as :meth:`step` calls them, so
        nothing they can observe mid-run (a check reads only the LLC)
        differs.  A finished core is left as it is.
        """
        if self.completion_clock >= 0:
            return
        blocks = self._blocks
        if blocks is None:
            blocks = self._load_trace()
        pcs = self._pcs
        writes = self._writes
        core = self.core_id
        l1, l2 = self.l1, self.l2
        l1_sets = l1.build_sets()
        l1_mask = l1._set_mask
        l1_bits = l1._index_bits
        l2_sets = l2.build_sets()
        l2_mask = l2._set_mask
        l2_bits = l2._index_bits
        service = memory.service
        prefetch = None if self.prefetcher is None else self._issue_prefetches
        lat_l1 = self._lat_l1
        lat_l2 = self._lat_l2
        lat_llc = self._lat_llc
        gap = self.gap
        warmup = self.warmup_accesses
        end = self._trace_length
        index = self.cursor
        clock = self.clock
        # Accesses serviced per level, and (w_*) their count when the
        # warmup window closed, subtracted from the measured counts.
        n_l1 = n_l2 = n_llc = n_mem = 0
        w_l1 = w_l2 = w_llc = w_mem = 0
        evictions1 = writebacks1 = evictions2 = writebacks2 = 0
        while index < end:
            block = blocks[index]
            is_write = writes[index]
            # L1: CacheSet.lookup's LRU branch.
            cache_set = l1_sets[block & l1_mask]
            tag = block >> l1_bits
            way = cache_set._tag_to_way.get(tag, -1)
            if way >= 0:
                stack = cache_set.policy.stack
                if stack[0] != way:
                    stack.remove(way)
                    stack.insert(0, way)
                if is_write:
                    cache_set._dirty[way] = True
                n_l1 += 1
                clock += gap + lat_l1
            else:
                pc = pcs[index]
                # L1 fill: CacheSet.allocate's LRU branches.
                tags = cache_set._tags
                stack = cache_set.policy.stack
                free = cache_set._free_ways
                if free:
                    way = free.pop()
                    stack.remove(way)
                else:
                    way = stack.pop()
                    evictions1 += 1
                    if cache_set._dirty[way]:
                        writebacks1 += 1
                    del cache_set._tag_to_way[tags[way]]
                stack.insert(0, way)
                cache_set._valid[way] = True
                tags[way] = tag
                cache_set._dirty[way] = is_write
                cache_set._cores[way] = core
                cache_set._tag_to_way[tag] = way
                # L2: the same lookup, then the same fill on a miss.
                cache_set = l2_sets[block & l2_mask]
                tag = block >> l2_bits
                way = cache_set._tag_to_way.get(tag, -1)
                if way >= 0:
                    stack = cache_set.policy.stack
                    if stack[0] != way:
                        stack.remove(way)
                        stack.insert(0, way)
                    if is_write:
                        cache_set._dirty[way] = True
                    n_l2 += 1
                    latency = lat_l2
                    was_miss = False
                else:
                    tags = cache_set._tags
                    stack = cache_set.policy.stack
                    free = cache_set._free_ways
                    if free:
                        way = free.pop()
                        stack.remove(way)
                    else:
                        way = stack.pop()
                        evictions2 += 1
                        if cache_set._dirty[way]:
                            writebacks2 += 1
                        del cache_set._tag_to_way[tags[way]]
                    stack.insert(0, way)
                    cache_set._valid[way] = True
                    tags[way] = tag
                    cache_set._dirty[way] = is_write
                    cache_set._cores[way] = core
                    cache_set._tag_to_way[tag] = way
                    if access(block, core, pc, is_write):
                        n_llc += 1
                        latency = lat_llc
                        was_miss = False
                    else:
                        n_mem += 1
                        latency = service(clock)
                        was_miss = True
                if prefetch is not None:
                    prefetch(block, pc, was_miss, access)
                clock += gap + latency
            index += 1
            if index == warmup:
                self.warmup_clock = clock
                w_l1, w_l2, w_llc, w_mem = n_l1, n_l2, n_llc, n_mem

        counts = self.level_counts
        counts[LEVEL_L1] += n_l1 - w_l1
        counts[LEVEL_L2] += n_l2 - w_l2
        counts[LEVEL_LLC] += n_llc - w_llc
        counts[LEVEL_MEMORY] += n_mem - w_mem
        l2_misses = n_llc + n_mem
        l1_misses = n_l2 + l2_misses
        _add_stats(l1, core, n_l1, l1_misses, evictions1, writebacks1)
        _add_stats(l2, core, n_l2, l2_misses, evictions2, writebacks2)
        self.clock = clock
        self.cursor = 0
        self.passes += 1
        self.completion_clock = clock

    def _load_trace(self) -> List[int]:
        """Build the private caches and the per-access lists :meth:`step` reads.

        Deliberately a plain method called from ``step`` rather than a
        ``cached_property``: a descriptor on the class would stop the
        interpreter from specializing the ``self._blocks`` load in the
        hot loop.
        """
        config, core_id = self.config, self.core_id
        self.l1 = SetAssociativeCache(config.l1, lru_factory(), f"l1.{core_id}")
        self.l2 = SetAssociativeCache(config.l2, lru_factory(), f"l2.{core_id}")
        trace = self.trace
        blocks: List[int] = (trace.addresses >> self._block_shift).tolist()
        self._blocks = blocks
        self._pcs = trace.pcs.tolist()
        self._writes = trace.is_write.tolist()
        return blocks

    def _issue_prefetches(self, block: int, pc: int, was_miss: bool,
                          access: LLCAccess) -> None:
        """Train the prefetcher and install its candidates.

        Prefetch fills go to the L2 and the shared LLC with the reserved
        prefetch PC and are not charged to the core's clock (hardware
        prefetch is off the critical path); their effect on cache
        contents — the part the policy study cares about — is real.
        """
        for candidate in self.prefetcher.observe(block, pc, was_miss):
            if candidate < 0:
                continue
            if not self.l2.probe(candidate):
                self.l2.access(candidate, self.core_id, PREFETCH_PC, False)
                access(candidate, self.core_id, PREFETCH_PC, False)

    # ------------------------------------------------------------------
    # Derived metrics for the measured pass
    # ------------------------------------------------------------------

    def cycles(self) -> int:
        """Cycles of the measured window (current span if unfinished)."""
        end = self.completion_clock if self.first_pass_done else self.clock
        return max(0, end - self.warmup_clock)

    def _executed_accesses(self) -> int:
        if self.first_pass_done:
            return self.measured_accesses
        return max(0, self.cursor - self.warmup_accesses)

    def ipc(self) -> float:
        """Instructions per cycle over the measured window."""
        executed = self._executed_accesses() * (self.gap + 1)
        cycles = self.cycles()
        return executed / cycles if cycles else 0.0

    def llc_accesses(self) -> int:
        """Accesses that reached the LLC during the measured pass."""
        return self.level_counts[LEVEL_LLC] + self.level_counts[LEVEL_MEMORY]

    def llc_misses(self) -> int:
        """LLC misses during the measured pass."""
        return self.level_counts[LEVEL_MEMORY]

    def mpki(self) -> float:
        """LLC misses per thousand instructions over the measured window."""
        executed = max(1, self._executed_accesses() * (self.gap + 1))
        return 1000.0 * self.llc_misses() / executed


def _add_stats(cache: SetAssociativeCache, core: int, hits: int, misses: int,
               evictions: int, writebacks: int) -> None:
    """Add :meth:`CoreModel.finish_pass`'s counts to a private cache.

    What :meth:`SetAssociativeCache.access` records per access, summed:
    every miss fills (the private caches are plain LRU and never
    bypass), and the core's own counters appear on its first access.
    """
    if hits + misses == 0:
        return
    stats = cache.stats
    per_core = stats.per_core.get(core)
    if per_core is None:
        per_core = stats.per_core.setdefault(core, AccessStats())
    total = stats.total
    total.hits += hits
    per_core.hits += hits
    total.misses += misses
    per_core.misses += misses
    total.evictions += evictions
    total.writebacks += writebacks
    cache.fills += misses
