"""Dead-block-prediction replacement (SDBP-style, Khan+ MICRO 2010).

Contemporary with NUcache, dead-block prediction is the third PC-based
approach of that era: predict, at each *touch* of a line, whether that
touch is the line's last before eviction — and if so, make the line the
preferred victim (its space is free capacity from that moment on).

This implementation is the trace-free "reference + eviction voting"
variant:

* Each way remembers the PC of its most recent touch.
* A shared table of saturating counters (indexed by a PC hash) tallies
  outcomes: when a line is evicted, the PC of its last touch correctly
  ended the lifetime → train toward *dead*; when a line is re-touched,
  the PC of its previous touch was not last → train toward *live*.
* A line whose last touch PC's counter exceeds a threshold is predicted
  dead and outranks the LRU order for victim selection.

The full SDBP trains on sampler sets with partial tags; the shared-
table simplification keeps the same learning signal with less
machinery (the sampler exists to save hardware, which a simulator does
not need — cf. the Table 2 discussion of monitor budgets).
"""

from __future__ import annotations

from typing import List

from repro.cache.replacement.base import PolicyFactory, RecencyStackPolicy

#: Default predictor table size and counter geometry.
DEFAULT_TABLE_ENTRIES = 16 * 1024
DEFAULT_COUNTER_BITS = 2
#: A counter at or above this value predicts "dead".
DEFAULT_DEAD_THRESHOLD = 2


class DeadBlockPredictor:
    """Shared PC-indexed dead/live vote table."""

    def __init__(self, entries: int = DEFAULT_TABLE_ENTRIES,
                 counter_bits: int = DEFAULT_COUNTER_BITS,
                 dead_threshold: int = DEFAULT_DEAD_THRESHOLD) -> None:
        if entries <= 0:
            raise ValueError(f"entries must be positive, got {entries}")
        if counter_bits <= 0:
            raise ValueError(f"counter_bits must be positive, got {counter_bits}")
        max_value = (1 << counter_bits) - 1
        if not 0 < dead_threshold <= max_value:
            raise ValueError(
                f"dead_threshold must be in 1..{max_value}, got {dead_threshold}"
            )
        self.entries = entries
        self.max_value = max_value
        self.dead_threshold = dead_threshold
        self._counters = [0] * entries

    def index_of(self, core: int, pc: int) -> int:
        """Hash a (core, PC) pair into the table."""
        return hash((core, pc)) % self.entries

    def predicts_dead(self, signature: int) -> bool:
        """Whether a touch by this signature is predicted to be last."""
        return self._counters[signature] >= self.dead_threshold

    def train_dead(self, signature: int) -> None:
        """The signature's touch turned out to be the last."""
        if self._counters[signature] < self.max_value:
            self._counters[signature] += 1

    def train_live(self, signature: int) -> None:
        """The signature's touch was followed by a reuse."""
        if self._counters[signature] > 0:
            self._counters[signature] -= 1


class SDBPPolicy(RecencyStackPolicy):
    """LRU augmented with dead-block victim priority.

    Note: ``touch`` does not receive the touching PC through the policy
    interface (hits are PC-agnostic for every other policy), so the
    last-touch signature is the *fill* signature refreshed on hits —
    the "fill-PC dead block" simplification, which is also what keeps
    the hardware analogy to NUcache's per-line fill-PC annotation.
    """

    name = "sdbp"

    def __init__(self, ways: int, predictor: DeadBlockPredictor) -> None:
        super().__init__(ways)
        self.predictor = predictor
        self._signature: List[int] = [-1] * ways
        self._occupied: List[bool] = [False] * ways
        self._predicted_dead: List[bool] = [False] * ways

    def touch(self, way: int, core: int) -> None:
        super().touch(way, core)
        signature = self._signature[way]
        if signature >= 0:
            # The previous touch was not last: train live, re-predict.
            self.predictor.train_live(signature)
            self._predicted_dead[way] = self.predictor.predicts_dead(signature)

    def insert(self, way: int, core: int, pc: int = 0) -> None:
        outgoing = self._signature[way]
        if self._occupied[way] and outgoing >= 0:
            # The outgoing line's last touch really was last.
            self.predictor.train_dead(outgoing)
        super().insert(way, core, pc)
        signature = self.predictor.index_of(core, pc)
        self._signature[way] = signature
        self._occupied[way] = True
        self._predicted_dead[way] = self.predictor.predicts_dead(signature)

    def victim(self) -> int:
        # Prefer the least-recent predicted-dead line; else plain LRU.
        for way in reversed(self.stack):
            if self._predicted_dead[way]:
                return way
        return self.stack[-1]


def sdbp_factory(table_entries: int = DEFAULT_TABLE_ENTRIES,
                 dead_threshold: int = DEFAULT_DEAD_THRESHOLD) -> PolicyFactory:
    """Factory producing an SDBP cache with one shared predictor."""
    predictor = DeadBlockPredictor(table_entries, dead_threshold=dead_threshold)
    return lambda ways, set_index: SDBPPolicy(ways, predictor)
