"""Per-core model: private caches, local clock, trace cursor.

Each core replays its trace in order through its private L1 and L2 into
the shared LLC.  The core is in-order with a one-access-at-a-time memory
system: an access costs ``instruction_gap`` compute cycles (CPI = 1 on
non-memory instructions) plus the latency of the level that serviced it.
This is the standard trace-driven approximation for LLC-policy studies —
see DESIGN.md's substitution table.

The private levels are plain LRU and only filter the stream the LLC
sees, and an LRU set's hits depend on nothing but the recency order of
its tags.  So each private set is one list of its resident tags, most
recent first: no valid, dirty or owner state and no statistics, which
no result reads.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional

from repro.cache.cache import LEVEL_L1, LEVEL_L2, LEVEL_LLC, LEVEL_MEMORY
from repro.common.addr import log2_exact
from repro.common.config import SystemConfig
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
        # The private L1 and L2, one list of resident tags (most recent
        # first) per set, built with the per-access lists by the first
        # advance() (see _load_trace): the batched engine resolves the
        # private levels itself and never advances a core.
        self.l1: Optional[List[List[int]]] = None
        self.l2: Optional[List[List[int]]] = None
        l1, l2 = config.l1, config.l2
        # (set mask, index bits, ways) of each private level.
        self._l1_shape = (l1.num_sets - 1, log2_exact(l1.num_sets), l1.ways)
        self._l2_shape = (l2.num_sets - 1, log2_exact(l2.num_sets), l2.ways)
        # Hit latencies flattened out of the frozen dataclass: a dataclass
        # attribute access is two lookups deep.
        self._lat_l1 = config.latency.l1_hit
        self._lat_l2 = config.latency.l2_hit
        self._lat_llc = config.latency.llc_hit
        self.gap = trace.instruction_gap

        self._block_shift = log2_exact(config.block_bytes)
        # Per-access python lists of the trace, built with the private
        # caches by the first advance().
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

    def advance(self, access: LLCAccess, memory: FixedLatencyMemory,
                limit: float = math.inf) -> None:
        """Run accesses in one frame until the clock passes ``limit``.

        At least one access runs; the frame stops after the first access
        that leaves the clock above ``limit`` or ends the first pass,
        which sets :attr:`completion_clock` and wraps the cursor.  A
        finished core is left as it is: the engine never runs it again
        (see DESIGN.md's methodology deviations).  Each access advances
        the clock by the compute gap plus the latency of the level that
        serviced it.  ``access`` is the only thing called on the LLC:
        once for an access that misses the L2, and once per prefetch
        fill; ``memory.service(clock)`` prices an LLC miss.
        """
        if self.completion_clock >= 0:
            return
        blocks = self._blocks
        if blocks is None:
            blocks = self._load_trace()
        pcs = self._pcs
        writes = self._writes
        core = self.core_id
        l1 = self.l1
        l2 = self.l2
        l1_mask, l1_bits, l1_ways = self._l1_shape
        l2_mask, l2_bits, l2_ways = self._l2_shape
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
        # Accesses serviced per level in this frame's measured window.
        n_l1 = n_l2 = n_llc = n_mem = 0
        while True:
            block = blocks[index]
            tags = l1[block & l1_mask]
            tag = block >> l1_bits
            if tag in tags:
                if tags[0] != tag:
                    tags.remove(tag)
                    tags.insert(0, tag)
                n_l1 += 1
                clock += gap + lat_l1
            else:
                if len(tags) == l1_ways:
                    tags.pop()
                tags.insert(0, tag)
                tags = l2[block & l2_mask]
                tag = block >> l2_bits
                if tag in tags:
                    if tags[0] != tag:
                        tags.remove(tag)
                        tags.insert(0, tag)
                    n_l2 += 1
                    latency = lat_l2
                    was_miss = False
                else:
                    if len(tags) == l2_ways:
                        tags.pop()
                    tags.insert(0, tag)
                    if access(block, core, pcs[index], writes[index]):
                        n_llc += 1
                        latency = lat_llc
                        was_miss = False
                    else:
                        n_mem += 1
                        latency = service(clock)
                        was_miss = True
                if prefetch is not None:
                    prefetch(block, pcs[index], was_miss, access)
                clock += gap + latency
            index += 1
            if index == warmup:
                self.warmup_clock = clock
                n_l1 = n_l2 = n_llc = n_mem = 0
            if index == end or clock > limit:
                break

        if index >= warmup:
            counts = self.level_counts
            counts[LEVEL_L1] += n_l1
            counts[LEVEL_L2] += n_l2
            counts[LEVEL_LLC] += n_llc
            counts[LEVEL_MEMORY] += n_mem
        self.clock = clock
        if index == end:
            self.cursor = 0
            self.passes += 1
            self.completion_clock = clock
        else:
            self.cursor = index

    def _load_trace(self) -> List[int]:
        """Build the private caches and the per-access lists :meth:`advance` reads.

        Deliberately a plain method called from ``advance`` rather than
        a ``cached_property``: a descriptor on the class would stop the
        interpreter from specializing the ``self._blocks`` load.
        """
        self.l1 = [[] for _ in range(self.config.l1.num_sets)]
        self.l2 = [[] for _ in range(self.config.l2.num_sets)]
        trace = self.trace
        blocks: List[int] = (trace.addresses >> self._block_shift).tolist()
        self._blocks = blocks
        self._pcs = trace.pcs.tolist()
        self._writes = trace.is_write.tolist()
        return blocks

    def _issue_prefetches(self, block: int, pc: int, was_miss: bool,
                          access: LLCAccess) -> None:
        """Train the prefetcher and install its candidates.

        A candidate the L2 lacks fills the L2 and the shared LLC with the
        reserved prefetch PC.  Prefetch fills are not charged to the
        core's clock (hardware prefetch is off the critical path); their
        effect on cache contents — the part the policy study cares
        about — is real.
        """
        l2 = self.l2
        mask, bits, ways = self._l2_shape
        for candidate in self.prefetcher.observe(block, pc, was_miss):
            if candidate < 0:
                continue
            tags = l2[candidate & mask]
            tag = candidate >> bits
            if tag not in tags:
                if len(tags) == ways:
                    tags.pop()
                tags.insert(0, tag)
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
