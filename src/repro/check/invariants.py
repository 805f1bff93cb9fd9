"""Runtime invariant sanitizer for the optimized cache structures.

PR 4 traded the readable object-per-line cache model for slot arrays and
inlined hot paths; the price is that a bookkeeping bug no longer crashes
loudly — it silently skews hit rates.  This module makes the structural
invariants the paper (and DESIGN.md) state *checkable at runtime*:

* :class:`~repro.cache.set_.CacheSet` slot-array consistency — the
  tag index, validity flags, free list and recency stack must describe
  the same set of lines;
* NUcache organization — MainWays and DeliWays are disjoint, the
  DeliWays are a strict FIFO (retention sequence numbers must be
  increasing), per-line candidate-slot annotations match the
  controller's table, and the retention conservation law
  ``retentions == promotions + deli_evictions + resident`` holds;
* Next-Use profiling — eviction counters are non-negative and match
  the eviction log, history entries and reuse intervals point inside
  the log, and frozen delta vectors never exceed the eviction mass;
* statistics conservation — per-core counters sum to the totals,
  ``fills <= misses``, ``evictions <= fills``, ``writebacks <=
  evictions``, and occupancy never exceeds net fills.

:func:`check_llc` dispatches on the organization and returns the
violations as strings (empty list == healthy); :func:`assert_llc` raises
a structured :class:`~repro.common.errors.InvariantViolation` carrying a
serialized snapshot of the offending sets for postmortem.

Cadence is controlled by the ``REPRO_CHECK`` environment variable
(``off``/``epoch``/``access``), threaded through both engines' ``run``
via :func:`engine_checker` — pool workers inherit the variable through
the environment, so checked mode works transparently under ``run --jobs
N``.  See docs/checking.md.
"""

from __future__ import annotations

import os
import re
from typing import Dict, List, Optional, Sequence

from repro.cache.cache import SetAssociativeCache
from repro.cache.set_ import CacheSet
from repro.common.errors import InvariantViolation, ReproError
from repro.common.stats import SharedCacheStats
from repro.nucache.nextuse import EpochProfile, NextUseProfiler
from repro.nucache.organization import NUCache
from repro.nucache.partitioned import PartitionedNUCache

#: Environment variable selecting the check cadence.
CHECK_ENV_VAR = "REPRO_CHECK"

#: No checking (the default; the engine fast loop stays untouched).
MODE_OFF = "off"
#: Check at NUcache epoch boundaries (or every
#: :data:`CHECK_INTERVAL_STEPS` steps for epoch-less organizations) and
#: once at the end of the run.
MODE_EPOCH = "epoch"
#: Check after every engine step (slow; for debugging and the fuzzer).
MODE_ACCESS = "access"

#: All recognized ``REPRO_CHECK`` values.
MODES = (MODE_OFF, MODE_EPOCH, MODE_ACCESS)

#: Fallback cadence (engine steps) for ``epoch`` mode when the LLC has
#: no epoch controller (plain policies, UCP, PIPP).
CHECK_INTERVAL_STEPS = 4096

#: Ceiling on how many sets a violation snapshot serializes.
SNAPSHOT_MAX_SETS = 8


def current_mode() -> str:
    """The check mode selected by ``$REPRO_CHECK`` (default ``off``)."""
    raw = os.environ.get(CHECK_ENV_VAR, MODE_OFF).strip().lower() or MODE_OFF
    if raw not in MODES:
        raise ReproError(
            f"{CHECK_ENV_VAR} must be one of {', '.join(MODES)}, got {raw!r}"
        )
    return raw


# ----------------------------------------------------------------------
# Statistics conservation
# ----------------------------------------------------------------------


def check_stats(stats: SharedCacheStats, label: str = "llc") -> List[str]:
    """Conservation laws of a :class:`SharedCacheStats` bundle."""
    violations: List[str] = []
    total = stats.total
    for name in ("hits", "misses", "evictions", "writebacks"):
        if getattr(total, name) < 0:
            violations.append(f"{label}: total {name} is negative")
    per_core_hits = sum(core.hits for core in stats.per_core.values())
    per_core_misses = sum(core.misses for core in stats.per_core.values())
    for core_id, core in stats.per_core.items():
        if core.hits < 0 or core.misses < 0:
            violations.append(f"{label}: core {core_id} counters negative")
    if per_core_hits != total.hits:
        violations.append(
            f"{label}: per-core hits ({per_core_hits}) != total hits "
            f"({total.hits})"
        )
    if per_core_misses != total.misses:
        violations.append(
            f"{label}: per-core misses ({per_core_misses}) != total misses "
            f"({total.misses})"
        )
    if total.writebacks > total.evictions:
        violations.append(
            f"{label}: writebacks ({total.writebacks}) exceed evictions "
            f"({total.evictions})"
        )
    return violations


# ----------------------------------------------------------------------
# Slot-array CacheSet / SetAssociativeCache
# ----------------------------------------------------------------------


def check_cache_set(cache_set: CacheSet, label: str = "set") -> List[str]:
    """Slot-array consistency of one :class:`CacheSet`."""
    violations: List[str] = []
    ways = cache_set._ways
    valid = cache_set._valid
    tags = cache_set._tags
    tag_to_way = cache_set._tag_to_way
    valid_count = sum(1 for flag in valid if flag)
    if len(tag_to_way) != valid_count:
        violations.append(
            f"{label}: tag index has {len(tag_to_way)} entries but "
            f"{valid_count} valid ways"
        )
    seen_ways = set()
    for tag, way in tag_to_way.items():
        if not 0 <= way < ways:
            violations.append(f"{label}: tag {tag:#x} maps to way {way} out of range")
            continue
        if way in seen_ways:
            violations.append(f"{label}: way {way} indexed by multiple tags")
        seen_ways.add(way)
        if not valid[way]:
            violations.append(f"{label}: tag {tag:#x} maps to invalid way {way}")
        elif tags[way] != tag:
            violations.append(
                f"{label}: way {way} holds tag {tags[way]:#x} but is indexed "
                f"as {tag:#x}"
            )
    free = cache_set._free_ways
    if len(set(free)) != len(free):
        violations.append(f"{label}: free-way list has duplicates ({free})")
    expected_free = {way for way in range(ways) if not valid[way]}
    if set(free) != expected_free:
        violations.append(
            f"{label}: free ways {sorted(free)} != invalid ways "
            f"{sorted(expected_free)}"
        )
    stack = getattr(cache_set.policy, "stack", None)
    if stack is not None and sorted(stack) != list(range(ways)):
        violations.append(
            f"{label}: recency stack {stack} is not a permutation of "
            f"0..{ways - 1}"
        )
    return violations


def check_set_cache(cache: SetAssociativeCache) -> List[str]:
    """Full sanitation of a policy-parameterized cache + its stats."""
    violations: List[str] = []
    for index, cache_set in enumerate(cache.sets):
        violations.extend(check_cache_set(cache_set, f"set {index}"))
    violations.extend(check_stats(cache.stats, cache.name))
    total = cache.stats.total
    if cache.fills > total.misses:
        violations.append(
            f"{cache.name}: fills ({cache.fills}) exceed misses ({total.misses})"
        )
    if total.evictions > cache.fills:
        violations.append(
            f"{cache.name}: evictions ({total.evictions}) exceed fills "
            f"({cache.fills})"
        )
    occupancy = cache.occupancy
    if occupancy > cache.geometry.num_lines:
        violations.append(
            f"{cache.name}: occupancy ({occupancy}) exceeds capacity "
            f"({cache.geometry.num_lines})"
        )
    if occupancy > cache.fills - total.evictions:
        violations.append(
            f"{cache.name}: occupancy ({occupancy}) exceeds net fills "
            f"({cache.fills} - {total.evictions})"
        )
    return violations


# ----------------------------------------------------------------------
# NUcache organization
# ----------------------------------------------------------------------


def check_nucache(llc: NUCache) -> List[str]:
    """MainWay/DeliWay structure, FIFO order and retention accounting."""
    violations: List[str] = []
    controller = llc.controller
    fifo = llc.config.deli_replacement == "fifo"
    resident_deli = 0
    main_ways = llc.main_ways
    for index, nu_set in enumerate(llc.sets):
        label = f"set {index}"
        tags = nu_set.tags
        tag_to_way = nu_set.tag_to_way
        free = nu_set.free
        # A MainWay is valid exactly when it is not free.
        valid_ways = set(range(main_ways)) - set(free)
        if len(tag_to_way) != len(valid_ways):
            violations.append(
                f"{label}: tag index has {len(tag_to_way)} entries but "
                f"{len(valid_ways)} valid (non-free) MainWays"
            )
        seen_ways = set()
        for tag, way in tag_to_way.items():
            if not 0 <= way < main_ways:
                violations.append(
                    f"{label}: tag {tag:#x} maps to MainWay {way} out of range"
                )
                continue
            if way in seen_ways:
                violations.append(f"{label}: MainWay {way} indexed by multiple tags")
            seen_ways.add(way)
            if way not in valid_ways:
                violations.append(
                    f"{label}: tag {tag:#x} maps to free MainWay {way}"
                )
            elif tags[way] != tag:
                violations.append(
                    f"{label}: MainWay {way} holds tag {tags[way]:#x} but "
                    f"is indexed as {tag:#x}"
                )
        stack = nu_set.stack
        if sorted(stack) != list(range(main_ways)):
            violations.append(
                f"{label}: MainWay LRU stack {stack} is not a permutation of "
                f"0..{main_ways - 1}"
            )
        if len(set(free)) != len(free):
            violations.append(f"{label}: free-way list has duplicates ({free})")
        expected_free = set(range(main_ways)) - seen_ways
        if set(free) != expected_free:
            violations.append(
                f"{label}: free MainWays {sorted(free)} != the MainWays no tag "
                f"indexes {sorted(expected_free)}"
            )
        deli = nu_set.deli
        resident_deli += len(deli)
        if len(deli) > llc.deli_ways:
            violations.append(
                f"{label}: DeliWays hold {len(deli)} lines, capacity is "
                f"{llc.deli_ways}"
            )
        overlap = tag_to_way.keys() & deli.keys()
        if overlap:
            shown = ", ".join(f"{tag:#x}" for tag in sorted(overlap)[:4])
            violations.append(
                f"{label}: tags resident in both MainWays and DeliWays ({shown})"
            )
        if fifo:
            seqs = [entry.seq for entry in deli.values()]
            if any(later <= earlier for earlier, later in zip(seqs, seqs[1:])):
                violations.append(
                    f"{label}: DeliWay FIFO order broken (retention sequence "
                    f"numbers {seqs} are not strictly increasing)"
                )
        for way in sorted(valid_ways):
            expected = controller.slot_of(nu_set.cores[way], nu_set.pcs[way])
            if nu_set.slots[way] != expected:
                violations.append(
                    f"{label}: MainWay {way} slot annotation {nu_set.slots[way]} "
                    f"is stale (table says {expected})"
                )
        for tag, entry in deli.items():
            if entry.pc_slot != controller.slot_of(entry.core, entry.pc):
                violations.append(
                    f"{label}: DeliWay tag {tag:#x} slot annotation "
                    f"{entry.pc_slot} is stale (table says "
                    f"{controller.slot_of(entry.core, entry.pc)})"
                )
    violations.extend(check_stats(llc.stats, llc.name))
    total = llc.stats.total
    if llc.promotions > llc.deli_hits:
        violations.append(
            f"{llc.name}: promotions ({llc.promotions}) exceed deli hits "
            f"({llc.deli_hits})"
        )
    if fifo and llc.promotions != llc.deli_hits:
        violations.append(
            f"{llc.name}: under FIFO DeliWays every deli hit promotes, but "
            f"promotions ({llc.promotions}) != deli hits ({llc.deli_hits})"
        )
    if llc.deli_evictions > llc.retentions:
        violations.append(
            f"{llc.name}: deli evictions ({llc.deli_evictions}) exceed "
            f"retentions ({llc.retentions})"
        )
    if llc.retentions != llc.promotions + llc.deli_evictions + resident_deli:
        violations.append(
            f"{llc.name}: retention conservation broken — retentions "
            f"({llc.retentions}) != promotions ({llc.promotions}) + deli "
            f"evictions ({llc.deli_evictions}) + resident ({resident_deli})"
        )
    if total.evictions > total.misses:
        violations.append(
            f"{llc.name}: evictions ({total.evictions}) exceed misses "
            f"({total.misses})"
        )
    if llc.retentions > total.misses:
        violations.append(
            f"{llc.name}: retentions ({llc.retentions}) exceed misses "
            f"({total.misses})"
        )
    if isinstance(llc, PartitionedNUCache):
        # The initial allocation under-commits when main_ways % num_cores
        # != 0 (the remainder is unmanaged slack until the first UMON
        # repartition), so only over-commitment is a violation.
        if sum(llc.allocation) > llc.main_ways:
            violations.append(
                f"{llc.name}: MainWay quotas {llc.allocation} over-commit "
                f"the {llc.main_ways} MainWays"
            )
        if any(quota < 1 for quota in llc.allocation):
            violations.append(
                f"{llc.name}: MainWay quotas {llc.allocation} starve a core"
            )
    return violations


# ----------------------------------------------------------------------
# Next-Use profiler and controller
# ----------------------------------------------------------------------


def check_profiler(
    profiler: NextUseProfiler, label: str = "profiler"
) -> List[str]:
    """Counter/log agreement and in-log positions of the live Next-Use monitor.

    The per-slot eviction counters must equal the eviction log's per-slot
    counts, every history entry must point at its own eviction inside the
    log (positions strictly increasing in FIFO order, so no two entries
    share one), and every recorded reuse interval must lie inside the log.
    """
    violations: List[str] = []
    evictions = profiler._evictions
    num_slots = profiler._num_slots
    log = profiler._log
    if len(evictions) != num_slots:
        violations.append(
            f"{label}: {len(evictions)} eviction counters for {num_slots} slots"
        )
    if any(count < 0 for count in evictions):
        violations.append(f"{label}: negative eviction counter ({evictions})")
    logged = [0] * num_slots
    for slot in log:
        if not 0 <= slot < num_slots:
            violations.append(f"{label}: eviction log holds slot {slot} out of range")
            break
        logged[slot] += 1
    else:
        if logged != evictions:
            violations.append(
                f"{label}: eviction counters {evictions} != the log's "
                f"per-slot counts {logged}"
            )
    history = profiler._history
    if len(history) > profiler.history_capacity:
        violations.append(
            f"{label}: history holds {len(history)} entries, "
            f"capacity is {profiler.history_capacity}"
        )
    previous = -1
    for block_addr, position in history.items():
        if position >= len(log):
            violations.append(
                f"{label}: history entry {block_addr:#x} points at log position "
                f"{position}, past the end of the log ({len(log)} evictions)"
            )
            continue
        if position <= previous:
            violations.append(
                f"{label}: history entry {block_addr:#x} points at log position "
                f"{position}, not after the previous entry's {previous}"
            )
        previous = position
    reuses = profiler._reuses
    if len(reuses) % 2:
        violations.append(f"{label}: reuse record has odd length {len(reuses)}")
    for evicted_at, reused_at in zip(reuses[::2], reuses[1::2]):
        if not 0 <= evicted_at < reused_at <= len(log):
            violations.append(
                f"{label}: reuse interval ({evicted_at}, {reused_at}) lies "
                f"outside the log of {len(log)} evictions"
            )
    return violations


def check_profile(profile: EpochProfile, label: str = "profile") -> List[str]:
    """Non-negativity / total-mass conservation of a frozen epoch profile."""
    violations: List[str] = []
    if any(count < 0 for count in profile.evictions_per_slot):
        violations.append(
            f"{label}: negative eviction total ({profile.evictions_per_slot})"
        )
    if profile.num_events == 0:
        return violations
    if int(profile.event_deltas.min(initial=0)) < 0:
        violations.append(f"{label}: negative event delta in the profile")
    if profile.num_slots:
        pc_min = int(profile.event_pc.min())
        pc_max = int(profile.event_pc.max())
        if pc_min < 0 or pc_max >= profile.num_slots:
            violations.append(
                f"{label}: event slot range [{pc_min}, {pc_max}] outside "
                f"0..{profile.num_slots - 1}"
            )
        per_slot_max = profile.event_deltas.max(axis=0)
        for slot, (delta, total) in enumerate(
            zip(per_slot_max.tolist(), profile.evictions_per_slot)
        ):
            if delta > total:
                violations.append(
                    f"{label}: slot {slot} event delta {delta} exceeds its "
                    f"epoch eviction total {total} (mass not conserved)"
                )
    return violations


def check_controller(controller) -> List[str]:
    """Candidate-table / selection / epoch-accounting consistency."""
    violations: List[str] = []
    slot_keys = controller._slot_keys
    for key, slot in controller._slot_of.items():
        if not 0 <= slot < len(slot_keys):
            violations.append(
                f"controller: key {key} maps to slot {slot} out of range"
            )
        elif slot_keys[slot] != key:
            violations.append(
                f"controller: slot {slot} lists {slot_keys[slot]} but key "
                f"{key} maps to it"
            )
    slots = list(controller._slot_of.values())
    if len(set(slots)) != len(slots):
        violations.append("controller: two candidate keys share one slot")
    table_slots = set(slots)
    for slot in controller._selected:
        if slot not in table_slots:
            violations.append(
                f"controller: selected slot {slot} has no candidate key"
            )
    if controller._misses_this_epoch != sum(controller._miss_counts.values()):
        violations.append(
            f"controller: epoch miss total ({controller._misses_this_epoch}) "
            f"!= per-PC sum ({sum(controller._miss_counts.values())})"
        )
    violations.extend(check_profiler(controller.profiler))
    if controller.last_profile is not None:
        violations.extend(check_profile(controller.last_profile, "last profile"))
    return violations


# ----------------------------------------------------------------------
# Dispatch, snapshots, raising
# ----------------------------------------------------------------------


def _check_stack_set(stack_set, ways: int, label: str) -> List[str]:
    """Structure checks shared by the UCP/PIPP set layouts.

    Their sets keep a recency stack of *valid ways only* plus the same
    tag index / free list discipline as everything else.
    """
    violations: List[str] = []
    lines = stack_set.lines
    valid_ways = {way for way, line in enumerate(lines) if line.valid}
    for tag, way in stack_set.tag_to_way.items():
        if not 0 <= way < ways or not lines[way].valid or lines[way].tag != tag:
            violations.append(f"{label}: tag {tag:#x} badly indexed at way {way}")
    if len(stack_set.tag_to_way) != len(valid_ways):
        violations.append(
            f"{label}: tag index has {len(stack_set.tag_to_way)} entries but "
            f"{len(valid_ways)} valid ways"
        )
    if sorted(stack_set.stack) != sorted(valid_ways):
        violations.append(
            f"{label}: stack {stack_set.stack} is not a permutation of the "
            f"valid ways {sorted(valid_ways)}"
        )
    expected_free = set(range(ways)) - valid_ways
    if set(stack_set.free_ways) != expected_free:
        violations.append(
            f"{label}: free ways {sorted(stack_set.free_ways)} != invalid "
            f"ways {sorted(expected_free)}"
        )
    return violations


def check_llc(llc) -> List[str]:
    """Every applicable invariant violation of a shared LLC (empty == ok)."""
    if isinstance(llc, NUCache):
        return check_nucache(llc) + check_controller(llc.controller)
    if isinstance(llc, SetAssociativeCache):
        return check_set_cache(llc)
    violations: List[str] = []
    sets = getattr(llc, "sets", None)
    if sets and hasattr(sets[0], "stack") and hasattr(sets[0], "tag_to_way"):
        for index, stack_set in enumerate(sets):
            violations.extend(
                _check_stack_set(stack_set, llc.geometry.ways, f"set {index}")
            )
    violations.extend(check_stats(llc.stats, llc.name))
    return violations


def _sets_mentioned(violations: Sequence[str]) -> List[int]:
    """Set indices named by violation strings (for bounded snapshots)."""
    indices: List[int] = []
    for violation in violations:
        match = re.match(r"set (\d+):", violation)
        if match:
            index = int(match.group(1))
            if index not in indices:
                indices.append(index)
    return indices[:SNAPSHOT_MAX_SETS]


def snapshot_llc(llc, set_indices: Optional[Sequence[int]] = None) -> Dict:
    """JSON-serializable state snapshot of an LLC for postmortems.

    Serializes the global counters plus the full contents of the chosen
    sets (all sets up to :data:`SNAPSHOT_MAX_SETS` when none are given),
    so an :class:`InvariantViolation` carries enough context to diagnose
    without re-running.
    """
    snapshot: Dict = {"policy": llc.name, "counters": llc.snapshot_counters()}
    sets = getattr(llc, "sets", None)
    if not sets:
        return snapshot
    if set_indices is None:
        set_indices = range(min(len(sets), SNAPSHOT_MAX_SETS))
    per_set: Dict[str, Dict] = {}
    for index in set_indices:
        if not 0 <= index < len(sets):
            continue
        per_set[str(index)] = _snapshot_set(llc, sets[index])
    snapshot["sets"] = per_set
    if isinstance(llc, NUCache):
        snapshot["selected_slots"] = sorted(llc.controller.selected_slots)
        snapshot["candidates"] = len(llc.controller._slot_of)
        snapshot["deli_ways"] = llc.deli_ways
    if isinstance(llc, PartitionedNUCache):
        snapshot["allocation"] = list(llc.allocation)
    return snapshot


def _snapshot_set(llc, one_set) -> Dict:
    """Serialize one set of any supported organization."""
    if isinstance(one_set, CacheSet):
        return {
            "tags": [
                tag if valid else None
                for tag, valid in zip(one_set._tags, one_set._valid)
            ],
            "dirty": list(one_set._dirty),
            "free_ways": list(one_set._free_ways),
            "stack": list(getattr(one_set.policy, "stack", []) or []),
            "tag_to_way": {str(tag): way for tag, way in one_set._tag_to_way.items()},
        }
    if isinstance(llc, NUCache):
        indexed = set(one_set.tag_to_way.values())
        return {
            "main": [
                {"tag": one_set.tags[way], "dirty": one_set.dirty[way],
                 "core": one_set.cores[way], "pc": one_set.pcs[way],
                 "pc_slot": one_set.slots[way]}
                if way in indexed else None
                for way in range(llc.main_ways)
            ],
            "main_stack": list(one_set.stack),
            "free_ways": list(one_set.free),
            "deli": [
                {"tag": tag, "dirty": entry.dirty, "core": entry.core,
                 "pc": entry.pc, "pc_slot": entry.pc_slot, "seq": entry.seq}
                for tag, entry in one_set.deli.items()
            ],
        }
    return {
        "tags": [line.tag if line.valid else None for line in one_set.lines],
        "stack": list(getattr(one_set, "stack", []) or []),
        "free_ways": list(getattr(one_set, "free_ways", []) or []),
    }


def assert_llc(llc, context: str = "") -> None:
    """Run :func:`check_llc`; raise :class:`InvariantViolation` on failure."""
    violations = check_llc(llc)
    if not violations:
        return
    raise_violation(llc, violations, context)


def raise_violation(llc, violations: Sequence[str], context: str = "") -> None:
    """Raise a structured :class:`InvariantViolation` with a state snapshot."""
    head = violations[0]
    more = f" (+{len(violations) - 1} more)" if len(violations) > 1 else ""
    where = f" at {context}" if context else ""
    raise InvariantViolation(
        f"cache invariant violated{where}: {head}{more}",
        violations=violations,
        snapshot=snapshot_llc(llc, _sets_mentioned(violations) or None),
        context=context,
    )


# ----------------------------------------------------------------------
# Engine cadence hook
# ----------------------------------------------------------------------


class EngineChecker:
    """Runs the sanitizer over an engine run's LLC at the configured cadence.

    ``access`` mode checks after every engine step; ``epoch`` mode at
    NUcache selection-epoch boundaries (:meth:`at_epoch`, called from
    the controller's rotation hook on every engine path), or every
    :data:`CHECK_INTERVAL_STEPS` steps for epoch-less organizations.
    Both check once more when the run finishes.  Checks are strictly
    read-only, so a checked run's simulated numbers are byte-identical
    to an unchecked one — the only difference is that corruption raises
    :class:`InvariantViolation` instead of skewing results.
    """

    def __init__(self, llc, mode: str) -> None:
        self.llc = llc
        self.mode = mode
        self.checks_run = 0
        #: Whether the cadence counts engine steps (:meth:`after_step`).
        self.needs_steps = (
            mode == MODE_ACCESS or getattr(llc, "controller", None) is None
        )

    def _check(self, context: str) -> None:
        self.checks_run += 1
        violations = check_llc(self.llc)
        if violations:
            raise_violation(self.llc, violations, context)

    def after_step(self, steps: int) -> None:
        """Observe one engine step; check when the cadence says so."""
        if self.mode == MODE_ACCESS or steps % CHECK_INTERVAL_STEPS == 0:
            self._check(f"engine step {steps}")

    def at_epoch(self, epoch: int) -> None:
        """Check at the boundary that completed selection epoch ``epoch``."""
        self._check(f"epoch {epoch} boundary")

    def finish(self) -> None:
        """Terminal check when the engine run ends."""
        self._check("end of run")


def engine_checker(llc) -> Optional[EngineChecker]:
    """An :class:`EngineChecker` per ``$REPRO_CHECK``, or ``None`` when off."""
    mode = current_mode()
    if mode == MODE_OFF:
        return None
    return EngineChecker(llc, mode)
