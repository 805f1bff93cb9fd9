"""SRRIP, BRRIP and DRRIP replacement (Jaleel+, ISCA 2010).

Re-reference interval prediction keeps an M-bit RRPV (re-reference
prediction value) per way:

* hit  → RRPV := 0 (near-immediate re-reference predicted),
* fill → SRRIP inserts with RRPV = max-1 ("long"); BRRIP inserts with
  max ("distant") except with probability 1/32 with max-1,
* victim → leftmost way with RRPV == max; if none, age every way by one
  and rescan.

DRRIP set-duels SRRIP against BRRIP.  RRIP postdates NUcache by a year;
it is included as the substrate's modern point of comparison and used by
the extension experiments.
"""

from __future__ import annotations

import random

from repro.cache.replacement.base import PolicyFactory, ReplacementPolicy
from repro.cache.replacement.dueling import DuelRole, DuelState, assign_role, policy_for
from repro.common.rng import derive_seed

#: BRRIP's bimodal throttle: probability of a "long" (max-1) insertion.
BRRIP_EPSILON = 1.0 / 32.0


class SRRIPPolicy(ReplacementPolicy):
    """Static RRIP with M-bit RRPVs (default M=2)."""

    name = "srrip"

    def __init__(self, ways: int, rrpv_bits: int = 2) -> None:
        super().__init__(ways)
        if rrpv_bits <= 0:
            raise ValueError(f"rrpv_bits must be positive, got {rrpv_bits}")
        self.max_rrpv = (1 << rrpv_bits) - 1
        # Start distant so untouched ways are evicted first.
        self.rrpv = [self.max_rrpv] * ways

    def touch(self, way: int, core: int) -> None:
        self.rrpv[way] = 0

    def victim(self) -> int:
        while True:
            for way in range(self.ways):
                if self.rrpv[way] == self.max_rrpv:
                    return way
            for way in range(self.ways):
                self.rrpv[way] += 1

    def insert(self, way: int, core: int, pc: int = 0) -> None:
        self.rrpv[way] = self._insertion_rrpv()

    def _insertion_rrpv(self) -> int:
        return self.max_rrpv - 1


class BRRIPPolicy(SRRIPPolicy):
    """Bimodal RRIP: distant insertion with a rare long insertion."""

    name = "brrip"

    def __init__(self, ways: int, seed: int = 0, rrpv_bits: int = 2) -> None:
        super().__init__(ways, rrpv_bits)
        self._rng = random.Random(seed)

    def _insertion_rrpv(self) -> int:
        if self._rng.random() < BRRIP_EPSILON:
            return self.max_rrpv - 1
        return self.max_rrpv


class DRRIPPolicy(SRRIPPolicy):
    """Per-set half of a DRRIP duel between SRRIP and BRRIP insertion."""

    name = "drrip"

    def __init__(
        self,
        ways: int,
        role: DuelRole,
        state: DuelState,
        seed: int = 0,
        rrpv_bits: int = 2,
    ) -> None:
        super().__init__(ways, rrpv_bits)
        self._role = role
        self._state = state
        self._rng = random.Random(seed)

    def insert(self, way: int, core: int, pc: int = 0) -> None:
        if self._role.kind != "follower":
            self._state.record_leader_miss(self._role)
        use_brrip = policy_for(self._role, self._state)
        if use_brrip and self._rng.random() >= BRRIP_EPSILON:
            self.rrpv[way] = self.max_rrpv
        else:
            self.rrpv[way] = self.max_rrpv - 1


def srrip_factory(rrpv_bits: int = 2) -> PolicyFactory:
    """Factory producing per-set SRRIP policies."""
    return lambda ways, set_index: SRRIPPolicy(ways, rrpv_bits)


def brrip_factory(seed: int = 0, rrpv_bits: int = 2) -> PolicyFactory:
    """Factory producing per-set BRRIP policies."""
    return lambda ways, set_index: BRRIPPolicy(
        ways, derive_seed(seed, f"brrip-set{set_index}"), rrpv_bits
    )


def drrip_factory(seed: int = 0, rrpv_bits: int = 2, psel_bits: int = 10) -> PolicyFactory:
    """Factory producing a DRRIP cache: one duel, SRRIP vs BRRIP."""
    state = DuelState(num_owners=1, psel_bits=psel_bits)

    def factory(ways: int, set_index: int) -> DRRIPPolicy:
        role = assign_role(set_index, num_owners=1)
        return DRRIPPolicy(ways, role, state, derive_seed(seed, f"drrip-set{set_index}"), rrpv_bits)

    return factory
