"""Per-core model: private caches, local clock, trace cursor.

Each core replays its trace in order through its private L1 and L2 into
the shared LLC.  The core is in-order with a one-access-at-a-time memory
system: an access costs ``instruction_gap`` compute cycles (CPI = 1 on
non-memory instructions) plus the latency of the level that serviced it.
This is the standard trace-driven approximation for LLC-policy studies —
see DESIGN.md's substitution table.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cache.cache import (
    LEVEL_L1,
    LEVEL_L2,
    LEVEL_LLC,
    LEVEL_MEMORY,
    LastLevelCache,
    SetAssociativeCache,
)
from repro.cache.replacement.basic import lru_factory
from repro.common.addr import log2_exact
from repro.common.config import LatencyConfig, SystemConfig
from repro.prefetch.prefetchers import PREFETCH_PC, Prefetcher
from repro.sim.memory import FixedLatencyMemory
from repro.workloads.trace import Trace


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
        self.l1 = SetAssociativeCache(config.l1, lru_factory(), f"l1.{core_id}")
        self.l2 = SetAssociativeCache(config.l2, lru_factory(), f"l2.{core_id}")
        self.latency: LatencyConfig = config.latency
        # Hit latencies flattened out of the frozen dataclass: step()
        # reads one per access and dataclass attribute access is two
        # lookups deep.
        self._lat_l1 = config.latency.l1_hit
        self._lat_l2 = config.latency.l2_hit
        self._lat_llc = config.latency.llc_hit
        self.gap = trace.instruction_gap

        self._block_shift = log2_exact(config.block_bytes)
        # Per-access python lists of the trace, built by the first step()
        # (see _load_trace): the batched engine never steps a core, so it
        # never pays for them.
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

    def step(self, llc: LastLevelCache, memory: FixedLatencyMemory) -> str:
        """Execute the next access; returns the servicing level.

        Advances the local clock by the compute gap plus the access
        latency.  The last access of a pass sets
        :attr:`completion_clock` and wraps the cursor.  The engine never
        steps a finished core again (see DESIGN.md's methodology
        deviations); a direct caller that does replays the trace with
        the statistics frozen at the first pass.
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
        elif llc.access(block, core, pc, is_write):
            level = LEVEL_LLC
            latency = self._lat_llc
        else:
            level = LEVEL_MEMORY
            latency = memory.service(self.clock)

        if self.prefetcher is not None and level != LEVEL_L1:
            self._issue_prefetches(block, pc, level == LEVEL_MEMORY, llc)

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

    def _load_trace(self) -> List[int]:
        """Build the per-access python lists :meth:`step` reads.

        Deliberately a plain method called from ``step`` rather than a
        ``cached_property``: a descriptor on the class would stop the
        interpreter from specializing the ``self._blocks`` load in the
        hot loop.
        """
        trace = self.trace
        blocks: List[int] = (trace.addresses >> self._block_shift).tolist()
        self._blocks = blocks
        self._pcs = trace.pcs.tolist()
        self._writes = trace.is_write.tolist()
        return blocks

    def _issue_prefetches(self, block: int, pc: int, was_miss: bool,
                          llc: LastLevelCache) -> None:
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
                llc.access(candidate, self.core_id, PREFETCH_PC, False)

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
