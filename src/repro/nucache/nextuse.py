"""Next-Use distance profiling.

The *Next-Use distance* of a line, with respect to a set ``S`` of
delinquent PCs, is the number of MainWay evictions of lines filled by
PCs in ``S`` that occur between the line's own MainWay eviction and its
next use.  If the DeliWays hold ``B`` lines in total and only PCs in
``S`` are allowed to retain victims there, a retained line survives
exactly until ``B`` further retentions — so its reuse is captured iff
its Next-Use distance w.r.t. ``S`` is at most ``B``.

The profiler below records, for every reuse of a recently-evicted line,
the *per-candidate-PC eviction delta vector*: how many MainWay evictions
each candidate PC contributed while the line was out of the MainWays.
From those event vectors the distance w.r.t. *any* candidate subset is a
dot product, which is what makes the cost-benefit selection in
:mod:`repro.nucache.selection` exact rather than heuristic.

Hardware realism: the paper's monitor is a FIFO of evicted tags plus
per-PC counters; this is the same structure.  ``history_capacity``
bounds the FIFO (reuses farther than the capacity are invisible, exactly
as in hardware), and ``sample_period`` optionally restricts profiling to
every Nth set (the hardware-friendly variant, evaluated as an ablation).

``NUCache.access`` and the hybrid replay's NUcache frame
(:func:`repro.sim.vector._replay_nucache`) run
:meth:`NextUseProfiler.on_eviction` and :meth:`NextUseProfiler.on_reuse`
as inlined copies on their hot paths; these methods are the reference
bodies, the differential oracle's profile lockstep checks
``NUCache.access``'s copies against
:class:`~repro.check.oracle.RefNextUseProfiler`, and a lockstep test
checks the frame's against ``NUCache.access``.

Software representation: instead of snapshotting every counter at each
eviction, the profiler appends the evicted line's slot to an epoch-long
eviction log and remembers only the log position.  A reuse records the
interval ``(position at eviction, log length now)``; the delta vectors
are the per-slot eviction counts inside those intervals, derived in
bulk with numpy when the epoch closes.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Sequence

import numpy as np
from numpy.typing import ArrayLike


#: Above this many events, selection works on a systematic subsample
#: (every k-th event) and scales counts back up — the selector only needs
#: relative benefit estimates, and this bounds its cost per epoch.
MAX_SELECTION_EVENTS = 4096


class EpochProfile:
    """Everything the selector needs about one profiling epoch.

    Args:
        num_slots: candidate slots this epoch.
        event_pc: per reuse event, the candidate slot of the PC that
            had filled the line.
        event_deltas: per reuse event, one row of per-candidate eviction
            counts accumulated between the line's eviction and its reuse.
        evictions_per_slot: the epoch's profiled evictions per slot.
        sample_period: the profiler's set-sampling period.
    """

    def __init__(self, num_slots: int, event_pc: ArrayLike, event_deltas: ArrayLike,
                 evictions_per_slot: Sequence[int], sample_period: int,
                 max_selection_events: int = MAX_SELECTION_EVENTS) -> None:
        self.num_slots = num_slots
        self.sample_period = sample_period
        self.evictions_per_slot = list(evictions_per_slot)
        self.event_pc = np.asarray(event_pc, dtype=np.int64)
        self.event_deltas = np.asarray(event_deltas, dtype=np.int64).reshape(
            len(self.event_pc), num_slots
        )
        if max_selection_events <= 0:
            raise ValueError(
                f"max_selection_events must be positive, got {max_selection_events}"
            )
        stride = max(1, -(-len(self.event_pc) // max_selection_events))  # ceil div
        self._selection_stride = stride
        self._sel_pc = self.event_pc[::stride]
        self._sel_deltas = self.event_deltas[::stride]

    @property
    def num_events(self) -> int:
        """Number of reuse events observed this epoch."""
        return int(self.event_pc.shape[0])

    def captured_hits(self, selected_slots: np.ndarray, deli_capacity: int) -> int:
        """Hits the DeliWays would capture for a candidate subset.

        Args:
            selected_slots: boolean mask over candidate slots.
            deli_capacity: total DeliWay line slots ``B``.  When the
                profile was sampled (``sample_period > 1``) the caller
                passes the *full* capacity; the scaling to sampled
                evictions happens here.

        Returns:
            The (subsample-scaled) number of reuse events from selected
            PCs whose Next-Use distance w.r.t. the selected set is
            within capacity.
        """
        if self.num_events == 0:
            return 0
        effective_capacity = deli_capacity // self.sample_period
        distances = self._sel_deltas @ selected_slots.astype(np.int64)
        from_selected = selected_slots[self._sel_pc]
        captured = int(np.count_nonzero(from_selected & (distances <= effective_capacity)))
        return captured * self._selection_stride

    def distance_histogram(self, bucket_edges: List[int]) -> Dict[int, np.ndarray]:
        """Per-PC histogram of all-candidate Next-Use distances.

        Used by the Fig. 2 characterization: distances are measured
        w.r.t. *all* candidates (the delinquent-PC eviction stream).
        Returns ``{pc_slot: counts_per_bucket}`` with a final overflow
        bucket.
        """
        histograms: Dict[int, np.ndarray] = {}
        if self.num_events == 0:
            return histograms
        distances = self.event_deltas.sum(axis=1)
        for slot in np.unique(self.event_pc):
            slot_distances = distances[self.event_pc == slot]
            counts = np.zeros(len(bucket_edges) + 1, dtype=np.int64)
            previous = 0
            for bucket, edge in enumerate(bucket_edges):
                counts[bucket] = np.count_nonzero(
                    (slot_distances >= previous) & (slot_distances < edge)
                )
                previous = edge
            counts[-1] = np.count_nonzero(slot_distances >= previous)
            histograms[int(slot)] = counts
        return histograms


class NextUseProfiler:
    """Online Next-Use monitor fed by the NUcache eviction stream.

    Usage per epoch::

        profiler.begin_epoch(num_slots)
        ... profiler.on_eviction(set_index, block_addr, pc_slot) ...
        ... profiler.on_reuse(set_index, block_addr) ...
        profile = profiler.finish_epoch()
    """

    def __init__(self, history_capacity: int, sample_period: int = 1) -> None:
        if history_capacity <= 0:
            raise ValueError(f"history_capacity must be positive, got {history_capacity}")
        if sample_period <= 0:
            raise ValueError(f"sample_period must be positive, got {sample_period}")
        self.history_capacity = history_capacity
        self.sample_period = sample_period
        self._num_slots = 0
        self._evictions: List[int] = []
        # The slot of every profiled eviction this epoch, in order.
        self._log: List[int] = []
        # block_addr -> log position of its eviction (oldest first).
        self._history: "OrderedDict[int, int]" = OrderedDict()
        # Flat (position at eviction, log length at reuse) pairs.
        self._reuses: List[int] = []

    def begin_epoch(self, num_slots: int) -> None:
        """Reset for a new epoch with ``num_slots`` candidate PCs."""
        self._num_slots = num_slots
        self._evictions = [0] * num_slots
        self._log = []
        self._history.clear()
        self._reuses = []

    def on_eviction(self, set_index: int, block_addr: int, pc_slot: int) -> None:
        """Record a MainWay eviction of a line filled by slot ``pc_slot``.

        Lines from non-candidate PCs (``pc_slot < 0``) neither count as
        eviction traffic nor enter the history: they could never be
        retained, so they are invisible to the cost-benefit model.  Only
        every ``sample_period``-th set is profiled.

        The ``move_to_end`` serves a caller that evicts a block still in
        the history.  The inlined copies in ``NUCache.access`` and the
        hybrid replay's NUcache frame
        (:func:`repro.sim.vector._replay_nucache`) leave it out: their
        victims' fills ran the reuse lookup, which popped them.
        """
        if pc_slot < 0 or set_index % self.sample_period:
            return
        self._evictions[pc_slot] += 1
        log = self._log
        history = self._history
        history[block_addr] = len(log)
        history.move_to_end(block_addr)
        log.append(pc_slot)
        if len(history) > self.history_capacity:
            history.popitem(last=False)

    def on_reuse(self, set_index: int, block_addr: int) -> bool:
        """Record an access to a line that may be in the eviction history.

        Returns whether the block was found (a Next-Use event).  Inlined
        in ``NUCache.access`` and in the hybrid replay's NUcache frame
        (:func:`repro.sim.vector._replay_nucache`).
        """
        if set_index % self.sample_period:
            return False
        position = self._history.pop(block_addr, None)
        if position is None:
            return False
        reuses = self._reuses
        reuses.append(position)
        reuses.append(len(self._log))
        return True

    def finish_epoch(self) -> EpochProfile:
        """Freeze the epoch's observations into an :class:`EpochProfile`.

        An event's delta for slot ``s`` counts the ``s`` entries of the
        log strictly between the line's own eviction and its reuse: the
        difference of the log's running ``s`` count at the two ends.
        """
        num_slots = self._num_slots
        log = np.array(self._log, dtype=np.int64)
        intervals = np.array(self._reuses, dtype=np.int64).reshape(-1, 2)
        evicted_at, reused_at = intervals[:, 0], intervals[:, 1]
        event_deltas = np.zeros((len(intervals), num_slots), dtype=np.int64)
        if len(intervals):
            # running[p]: entries of the slot among the first p of the log.
            running = np.zeros(len(log) + 1, dtype=np.int64)
            after_eviction = evicted_at + 1
            for slot in range(num_slots):
                np.cumsum(log == slot, out=running[1:])
                event_deltas[:, slot] = running[reused_at] - running[after_eviction]
        return EpochProfile(
            num_slots, log[evicted_at], event_deltas, self._evictions,
            self.sample_period,
        )

    @property
    def pending_evictions(self) -> int:
        """Evicted lines currently awaiting their next use."""
        return len(self._history)
