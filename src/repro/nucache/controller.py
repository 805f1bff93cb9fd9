"""Epoch controller: candidate tracking, profiling and selection.

The controller owns everything about NUcache that is *not* the way
organization: the delinquent-PC candidate table, the Next-Use profiler,
the per-epoch miss accounting and the end-of-epoch selection.  On its
access path the :class:`~repro.nucache.organization.NUCache` asks two
questions, "which candidate slot does this (core, PC) map to?" and "is
this slot selected?", and counts accesses and misses.  It does all of
that, and the :attr:`profiler`'s eviction and reuse updates, inline:
:meth:`note_access`, :meth:`note_miss` and :meth:`is_selected` are the
reference bodies of those copies, so a change to one of them must be
made to ``NUCache.access`` and to the hybrid replay's NUcache frame
(:func:`repro.sim.vector._replay_nucache`) too (the differential
oracle, the golden payloads and the frame's lockstep test catch a copy
that drifts).

Epoch protocol (lengths measured in LLC misses, as in the paper):

1. During an epoch, misses are attributed to (core, PC) pairs and the
   profiler accumulates Next-Use events for the *current* candidates.
2. At the boundary, the configured selector picks the PC subset from the
   epoch's profile, the candidate table is rebuilt as
   ``selected PCs ∪ top miss PCs`` (keeping selected PCs ensures a PC
   that stopped missing *because* it is selected is not forgotten), and
   the cache is asked to remap the per-line slot annotations.
3. The first epoch is shortened (``WARMUP_FRACTION``) so the cache does
   not run an entire full-length epoch with nothing selected.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from repro.common.config import NUcacheConfig
from repro.nucache.nextuse import EpochProfile, NextUseProfiler
from repro.nucache.selection import SELECTORS

#: Fraction of a full epoch used for the bootstrap epochs (candidate
#: discovery and first profiling pass).  Kept short so that low-MPKI
#: programs, whose miss-driven epochs tick slowly, still get a selection
#: in place shortly after their cold misses.
WARMUP_FRACTION = 0.1

#: Selection hysteresis: keep the previous PC set unless the newly
#: computed one is estimated to capture at least this factor more hits.
#: Switching selections evicts the retained population (one full reuse
#: round of misses), so near-ties must not flip the selection — without
#: this, two equally-delinquent PCs that fit the DeliWays only one at a
#: time make the selector oscillate and capture almost nothing.
SWITCH_BENEFIT_FACTOR = 1.10

#: A (core, program-counter) pair — the identity of a static access site.
PCKey = Tuple[int, int]


class NUcacheController:
    """Candidate table + profiler + selector for one NUcache instance."""

    def __init__(self, config: NUcacheConfig, deli_capacity: int) -> None:
        self.config = config
        self.deli_capacity = deli_capacity
        self.profiler = NextUseProfiler(config.history_capacity, config.sample_period)
        self._selector: Callable = SELECTORS[config.selector]
        self._slot_of: Dict[PCKey, int] = {}
        self._slot_keys: List[Optional[PCKey]] = []
        self._selected: FrozenSet[int] = frozenset()
        self._miss_counts: Dict[PCKey, int] = {}
        self._misses_this_epoch = 0
        self._accesses_this_epoch = 0
        self._epoch_target = max(1, int(config.epoch_misses * WARMUP_FRACTION))
        self._access_target = max(
            1, int(config.effective_epoch_accesses * WARMUP_FRACTION)
        )
        self.epochs_completed = 0
        self.last_profile: Optional[EpochProfile] = None
        #: When True, every closed epoch's profile is appended to
        #: :attr:`profile_history` and its ``(core, PC)`` miss counts to
        #: :attr:`miss_count_history` (used by the baseline probe behind
        #: the characterization figures; off by default to keep memory
        #: flat on long runs).
        self.keep_profiles = False
        self.profile_history: List[EpochProfile] = []
        self.miss_count_history: List[Dict[PCKey, int]] = []
        #: Called with this controller at the end of every :meth:`rotate`;
        #: an engine run's :class:`repro.sim.engine.RunWatch` sets it.
        self.on_rotate: Optional[Callable[["NUcacheController"], None]] = None
        self.profiler.begin_epoch(0)

    # ------------------------------------------------------------------
    # Hot-path queries
    # ------------------------------------------------------------------

    def slot_of(self, core: int, pc: int) -> int:
        """Candidate slot for a filling access, or -1 if not a candidate."""
        return self._slot_of.get((core, pc), -1)

    def is_selected(self, pc_slot: int) -> bool:
        """Whether lines from this candidate slot may enter the DeliWays.

        Inlined in ``NUCache.access`` and in the hybrid replay's NUcache
        frame (:func:`repro.sim.vector._replay_nucache`).
        """
        return pc_slot in self._selected

    @property
    def selected_slots(self) -> FrozenSet[int]:
        """The currently selected candidate slots."""
        return self._selected

    def selected_keys(self) -> List[PCKey]:
        """The currently selected (core, PC) pairs, for reporting."""
        return [key for key, slot in self._slot_of.items() if slot in self._selected]

    # ------------------------------------------------------------------
    # Hot-path notifications
    # ------------------------------------------------------------------

    def note_miss(self, core: int, pc: int) -> int:
        """Account one LLC miss against its (core, PC); returns its slot.

        The slot is :meth:`slot_of` for the same pair, so the filling
        miss path builds the ``(core, pc)`` key once.  Inlined in
        ``NUCache.access`` and in the hybrid replay's NUcache frame
        (:func:`repro.sim.vector._replay_nucache`).
        """
        key = (core, pc)
        self._miss_counts[key] = self._miss_counts.get(key, 0) + 1
        self._misses_this_epoch += 1
        return self._slot_of.get(key, -1)

    def note_access(self) -> bool:
        """Account one LLC access; returns True when the epoch just ended.

        Epochs end on whichever comes first: the miss quota (the paper's
        primary trigger) or the access cap (so low-MPKI phases still
        re-select).  The caller must invoke :meth:`rotate` promptly when
        this returns True (kept separate so the cache can pass itself in
        for slot remapping).  Inlined in ``NUCache.access`` and in the
        hybrid replay's NUcache frame
        (:func:`repro.sim.vector._replay_nucache`), which keeps the
        epoch's counts in locals and stores them back before ``rotate``.
        """
        self._accesses_this_epoch += 1
        return (
            self._misses_this_epoch >= self._epoch_target
            or self._accesses_this_epoch >= self._access_target
        )

    # ------------------------------------------------------------------
    # Epoch boundary
    # ------------------------------------------------------------------

    def rotate(self, remap: Callable[[Dict[PCKey, int]], None]) -> FrozenSet[int]:
        """Close the epoch: select PCs, rebuild candidates, start anew.

        Args:
            remap: callback invoked with the *new* ``(core, pc) -> slot``
                table; the cache uses it to rewrite the slot annotation
                of every resident line so stale slots never leak across
                epochs.

        Returns:
            The new selected slot set (primarily for tests/telemetry).
        """
        profile = self.profiler.finish_epoch()
        self.last_profile = profile
        if self.keep_profiles:
            self.profile_history.append(profile)
            self.miss_count_history.append(self._miss_counts)
        selected_old_slots = self._selector(
            profile, self.deli_capacity, self.config.max_selected_pcs
        )
        if self._selected and selected_old_slots != self._selected:
            new_mask = np.zeros(profile.num_slots, dtype=bool)
            new_mask[list(selected_old_slots)] = True
            old_mask = np.zeros(profile.num_slots, dtype=bool)
            old_mask[list(self._selected)] = True
            new_hits = profile.captured_hits(new_mask, self.deli_capacity)
            old_hits = profile.captured_hits(old_mask, self.deli_capacity)
            # The +1 keeps the previous selection on zero-evidence epochs
            # (a selected PC whose lines stopped leaving the MainWays
            # produces no events; that is success, not failure).
            if new_hits < old_hits * SWITCH_BENEFIT_FACTOR + 1:
                selected_old_slots = self._selected
        selected_keys = {
            self._slot_keys[slot]
            for slot in selected_old_slots
            if self._slot_keys[slot] is not None
        }

        new_table: Dict[PCKey, int] = {}
        keys_in_order: List[Optional[PCKey]] = []
        for key in sorted(selected_keys):  # type: ignore[type-var]
            new_table[key] = len(keys_in_order)
            keys_in_order.append(key)
        for key, _count in sorted(
            self._miss_counts.items(), key=lambda item: item[1], reverse=True
        ):
            if len(keys_in_order) >= self.config.num_candidate_pcs:
                break
            if key not in new_table:
                new_table[key] = len(keys_in_order)
                keys_in_order.append(key)

        self._slot_of = new_table
        self._slot_keys = keys_in_order
        self._selected = frozenset(new_table[key] for key in selected_keys)
        remap(new_table)

        self._miss_counts = {}
        self._misses_this_epoch = 0
        self._accesses_this_epoch = 0
        self.epochs_completed += 1
        # The first full selection only happens after one epoch of
        # candidate discovery plus one of profiling, so keep both of
        # those short; thereafter run full-length epochs.
        if self.epochs_completed >= 2:
            fraction = 1.0
        else:
            fraction = WARMUP_FRACTION
        self._epoch_target = max(1, int(self.config.epoch_misses * fraction))
        self._access_target = max(
            1, int(self.config.effective_epoch_accesses * fraction)
        )
        self.profiler.begin_epoch(len(keys_in_order))
        if self.on_rotate is not None:
            self.on_rotate(self)
        return self._selected
