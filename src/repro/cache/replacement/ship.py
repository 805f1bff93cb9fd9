"""SHiP — Signature-based Hit Prediction (Wu+, MICRO 2011).

SHiP postdates NUcache by a few months and is the other landmark
PC-centric LLC policy; it is included as an extension comparison (the
"later PC-based policies" study).  Mechanism, on top of SRRIP:

* Each line carries the *signature* of the PC that filled it and an
  *outcome* bit (has the line been re-referenced since fill?).
* A table of saturating counters (the SHCT), indexed by a hash of the
  signature, learns whether fills from that signature tend to be
  re-referenced: trained down when a never-reused line is evicted,
  trained up on a line's first reuse.
* On a fill, a signature whose counter is zero is predicted dead-on-
  arrival and inserted at distant RRPV (evicted first); everything else
  gets SRRIP's long insertion.
* The bypass variant (``SHiPPolicy(bypass=True)``) goes one step
  further and does not allocate zero-counter fills at all.

Like NUcache, SHiP acts on fill-PC information — but it throttles
*insertion priority* per PC, whereas NUcache grants *extra lifetime*
to a selected subset.  The fig. 11 extension quantifies where each
choice wins.
"""

from __future__ import annotations

from typing import List

from repro.cache.replacement.base import PolicyFactory
from repro.cache.replacement.rrip import SRRIPPolicy

#: Default SHCT size (counters) and width (bits).
DEFAULT_SHCT_ENTRIES = 16 * 1024
DEFAULT_SHCT_BITS = 3


class SignatureHitCounterTable:
    """The SHCT: shared, signature-indexed saturating counters."""

    def __init__(self, entries: int = DEFAULT_SHCT_ENTRIES,
                 counter_bits: int = DEFAULT_SHCT_BITS) -> None:
        if entries <= 0:
            raise ValueError(f"entries must be positive, got {entries}")
        if counter_bits <= 0:
            raise ValueError(f"counter_bits must be positive, got {counter_bits}")
        self.entries = entries
        self.max_value = (1 << counter_bits) - 1
        # Weak "reused" bias at reset: new signatures are given the
        # benefit of the doubt (value 1, not 0).
        self._counters = [1] * entries

    def index_of(self, core: int, pc: int) -> int:
        """Hash a (core, PC) pair into the table."""
        return hash((core, pc)) % self.entries

    def value(self, signature: int) -> int:
        """Current counter value for a signature index."""
        return self._counters[signature]

    def train_reused(self, signature: int) -> None:
        """A line of this signature was re-referenced."""
        if self._counters[signature] < self.max_value:
            self._counters[signature] += 1

    def train_dead(self, signature: int) -> None:
        """A line of this signature was evicted without reuse."""
        if self._counters[signature] > 0:
            self._counters[signature] -= 1


class SHiPPolicy(SRRIPPolicy):
    """Per-set SHiP state over a shared SHCT."""

    name = "ship"

    def __init__(self, ways: int, shct: SignatureHitCounterTable,
                 rrpv_bits: int = 2, bypass: bool = False) -> None:
        super().__init__(ways, rrpv_bits)
        self.shct = shct
        self.bypass = bypass
        self._signature: List[int] = [-1] * ways
        self._reused: List[bool] = [False] * ways
        self._occupied: List[bool] = [False] * ways

    def touch(self, way: int, core: int) -> None:
        super().touch(way, core)
        if not self._reused[way] and self._signature[way] >= 0:
            self._reused[way] = True
            self.shct.train_reused(self._signature[way])

    def insert(self, way: int, core: int, pc: int = 0) -> None:
        # Close out the outgoing line's training first.
        if self._occupied[way] and not self._reused[way] and self._signature[way] >= 0:
            self.shct.train_dead(self._signature[way])
        signature = self.shct.index_of(core, pc)
        self._signature[way] = signature
        self._reused[way] = False
        self._occupied[way] = True
        if self.shct.value(signature) == 0:
            self.rrpv[way] = self.max_rrpv  # predicted dead on arrival
        else:
            self.rrpv[way] = self.max_rrpv - 1

    def should_bypass(self, core: int, pc: int) -> bool:
        if not self.bypass:
            return False
        return self.shct.value(self.shct.index_of(core, pc)) == 0


def ship_factory(bypass: bool = False, shct_entries: int = DEFAULT_SHCT_ENTRIES,
                 rrpv_bits: int = 2) -> PolicyFactory:
    """Factory producing a SHiP cache with one shared SHCT."""
    shct = SignatureHitCounterTable(shct_entries)
    return lambda ways, set_index: SHiPPolicy(ways, shct, rrpv_bits, bypass)
