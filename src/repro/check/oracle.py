"""Differential reference-model oracle for the optimized cache kernel.

The optimized kernel (slot arrays, inlined LRU stack surgery, inlined
stats — PR 4) is fast precisely because it collapses abstraction
boundaries, which is where silent corruption hides.  This module keeps
deliberately *slow* reference models around — plain dicts and lists,
one obvious operation per step — and runs them in lockstep with the
kernel, diffing hit/miss outcome, set contents (which encodes victim
choice: a wrong victim leaves a wrong resident set), recency order and
global counters after every access.  Any divergence raises a structured
:class:`~repro.common.errors.InvariantViolation` carrying both views.

Three kinds of references, chosen by :func:`make_reference`:

* :class:`RefLRUCache` — a fully independent LRU model (MRU-ordered
  lists, no shared code with the kernel at all);
* :class:`RefNUCache` / :class:`RefPartitionedNUCache` — independent
  NUcache data-path models (MainWay list + DeliWay FIFO list).  The
  *selection* decision is shared state by design: the harness captures
  the controller's selected (core, PC) set before each kernel access
  and hands it to the reference, so the data paths are compared while
  selection remains single-sourced;
* :class:`RefPolicyCache` — a dict-based mirror of the pre-optimization
  access algorithm for the remaining policy families (DIP/SRRIP/SHiP/
  SDBP/...).  Replacement decisions come from an independent *twin*
  policy instance built by the same seeded factory, driven strictly
  through the documented ``touch``/``should_bypass``/``victim``/
  ``insert`` contract — exactly the code path the slot-array rework
  replaced, which is the regression this oracle exists to catch.

:class:`RefNextUseProfiler` is the original Next-Use monitor, which
snapshots every candidate counter at each eviction.  The NUcache
references drive one from their own evictions and reuses, and the
harness compares its epoch profiles with the kernel's, whose access
path inlines the event-log profiler.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, List, Tuple

from repro.cache.cache import SetAssociativeCache
from repro.cache.replacement.basic import (
    fifo_factory,
    lip_factory,
    nru_factory,
    plru_factory,
    random_factory,
)
from repro.cache.replacement.deadblock import sdbp_factory
from repro.cache.replacement.dip import bip_factory, dip_factory, tadip_factory
from repro.cache.replacement.rrip import brrip_factory, drrip_factory, srrip_factory
from repro.cache.replacement.ship import ship_factory
from repro.common.config import SystemConfig
from repro.common.errors import InvariantViolation, ReproError
from repro.check.invariants import check_llc, snapshot_llc
from repro.nucache.nextuse import EpochProfile
from repro.nucache.organization import NUCache
from repro.nucache.partitioned import PartitionedNUCache

#: A reference line: ``(tag, dirty)`` — enough to encode victim choice.
RefLine = Tuple[int, bool]


class RefLRUCache:
    """Fully independent LRU reference (shares no code with the kernel).

    Each set is an MRU-first list of ways plus a ``tag -> way`` dict and
    a free list consumed lowest-way-first, mirroring how the kernel
    assigns ways — so both per-way contents *and* recency order are
    directly comparable.
    """

    def __init__(self, num_sets: int, ways: int) -> None:
        self.ways = ways
        self.order: List[List[int]] = [[] for _ in range(num_sets)]
        self.tag_to_way: List[Dict[int, int]] = [{} for _ in range(num_sets)]
        self.contents: List[Dict[int, RefLine]] = [{} for _ in range(num_sets)]
        self.free: List[List[int]] = [
            list(range(ways - 1, -1, -1)) for _ in range(num_sets)
        ]
        self.hits = 0
        self.misses = 0
        self.fills = 0
        self.evictions = 0
        self.writebacks = 0

    def access(self, set_index: int, tag: int, core: int, pc: int,
               is_write: bool) -> bool:
        """Service one access; returns True on hit."""
        index = self.tag_to_way[set_index]
        order = self.order[set_index]
        contents = self.contents[set_index]
        way = index.get(tag)
        if way is not None:
            order.remove(way)
            order.insert(0, way)
            if is_write:
                contents[way] = (tag, True)
            self.hits += 1
            return True
        self.misses += 1
        self.fills += 1
        free = self.free[set_index]
        if free:
            way = free.pop()
        else:
            way = order.pop()
            victim_tag, victim_dirty = contents.pop(way)
            del index[victim_tag]
            self.evictions += 1
            if victim_dirty:
                self.writebacks += 1
        order.insert(0, way)
        contents[way] = (tag, is_write)
        index[tag] = way
        return False


class RefPolicyCache:
    """Dict-based mirror of the pre-optimization access algorithm.

    Runs a *twin* policy instance (same factory, same per-set seeds)
    through the documented policy contract: hit → ``touch``; miss →
    ``should_bypass`` → free way or ``victim`` → ``insert``.  Because
    the twin sees the identical decision sequence, its state evolves
    identically to the kernel's — unless the kernel's inlined fast
    paths diverge from the contract, which is the bug class under test.
    """

    def __init__(self, num_sets: int, ways: int, policy_factory) -> None:
        self.ways = ways
        self.policies = [policy_factory(ways, index) for index in range(num_sets)]
        self.contents: List[Dict[int, Tuple[int, bool]]] = [
            {} for _ in range(num_sets)
        ]  # way -> (tag, dirty)
        self.tag_to_way: List[Dict[int, int]] = [{} for _ in range(num_sets)]
        self.free: List[List[int]] = [
            list(range(ways - 1, -1, -1)) for _ in range(num_sets)
        ]
        self.hits = 0
        self.misses = 0
        self.fills = 0
        self.evictions = 0
        self.writebacks = 0

    def access(self, set_index: int, tag: int, core: int, pc: int,
               is_write: bool) -> bool:
        """Service one access; returns True on hit."""
        policy = self.policies[set_index]
        index = self.tag_to_way[set_index]
        contents = self.contents[set_index]
        way = index.get(tag)
        if way is not None:
            policy.touch(way, core)
            if is_write:
                contents[way] = (tag, True)
            self.hits += 1
            return True
        self.misses += 1
        if policy.should_bypass(core, pc):
            return False
        self.fills += 1
        free = self.free[set_index]
        if free:
            way = free.pop()
        else:
            way = policy.victim()
            victim_tag, victim_dirty = contents.pop(way)
            del index[victim_tag]
            self.evictions += 1
            if victim_dirty:
                self.writebacks += 1
        policy.insert(way, core, pc)
        contents[way] = (tag, is_write)
        index[tag] = way
        return False


class RefNUCache:
    """Independent NUcache data-path reference.

    Each set is a MainWay list (dicts, MRU first) plus a DeliWay list
    (oldest first).  Selection is injected per access as a
    ``selected(core, pc) -> bool`` callable captured from the kernel's
    controller, so this model checks the *way organization* — fills at
    MRU, LRU victims, retention of selected victims, FIFO overflow,
    promotion on DeliWay hit — independently of the selection machinery.

    The reference also feeds its own Next-Use monitor, :attr:`profiler`:
    every access that misses the MainWays is a potential reuse, and every
    MainWay victim an eviction under the slot that the injected
    ``slot_of(core, pc)`` table (the kernel's, captured before the
    access) gives its filling PC.
    """

    def __init__(self, num_sets: int, main_ways: int, deli_ways: int,
                 deli_replacement: str, profiler: "RefNextUseProfiler") -> None:
        self.main_ways = main_ways
        self.deli_ways = deli_ways
        self.deli_replacement = deli_replacement
        self.profiler = profiler
        self.index_bits = num_sets.bit_length() - 1
        self.main: List[List[Dict]] = [[] for _ in range(num_sets)]
        self.deli: List[List[Dict]] = [[] for _ in range(num_sets)]
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0
        self.deli_hits = 0
        self.retentions = 0
        self.promotions = 0
        self.deli_evictions = 0

    def access(self, set_index: int, tag: int, core: int, pc: int,
               is_write: bool, selected: Callable[[int, int], bool],
               slot_of: Callable[[int, int], int]) -> bool:
        """Service one access; returns True on hit (MainWay or DeliWay)."""
        main = self.main[set_index]
        for position, entry in enumerate(main):
            if entry["tag"] == tag:
                if position:
                    del main[position]
                    main.insert(0, entry)
                if is_write:
                    entry["dirty"] = True
                self.hits += 1
                return True
        self.profiler.on_reuse(set_index, (tag << self.index_bits) | set_index)
        deli = self.deli[set_index]
        for position, entry in enumerate(deli):
            if entry["tag"] == tag:
                self.deli_hits += 1
                self.hits += 1
                if is_write:
                    entry["dirty"] = True
                del deli[position]
                if self.deli_replacement == "lru":
                    deli.append(entry)  # refresh in place (ablation)
                else:
                    self.promotions += 1
                    self._fill_main(set_index, entry, selected, slot_of)
                return True
        self.misses += 1
        entry = {"tag": tag, "core": core, "pc": pc, "dirty": is_write}
        self._fill_main(set_index, entry, selected, slot_of)
        return False

    def _fill_main(self, set_index: int, entry: Dict,
                   selected: Callable[[int, int], bool],
                   slot_of: Callable[[int, int], int]) -> None:
        """Install at MainWay MRU, retaining or evicting the LRU victim."""
        main = self.main[set_index]
        if len(main) >= self.main_ways:
            victim = self._choose_victim(set_index, entry["core"])
            main.remove(victim)
            self.profiler.on_eviction(
                set_index, (victim["tag"] << self.index_bits) | set_index,
                slot_of(victim["core"], victim["pc"]),
            )
            if self.deli_ways > 0 and selected(victim["core"], victim["pc"]):
                victim["seq"] = self.retentions
                self.retentions += 1
                deli = self.deli[set_index]
                deli.append(victim)
                if len(deli) > self.deli_ways:
                    oldest = deli.pop(0)
                    self.deli_evictions += 1
                    self._count_eviction(oldest["dirty"])
            else:
                self._count_eviction(victim["dirty"])
        main.insert(0, entry)

    def _choose_victim(self, set_index: int, requester: int) -> Dict:
        """Victim for a full set: global LRU (the MainWays run plain LRU)."""
        return self.main[set_index][-1]

    def _count_eviction(self, dirty: bool) -> None:
        self.evictions += 1
        if dirty:
            self.writebacks += 1


class RefPartitionedNUCache(RefNUCache):
    """NUcache reference with UCP-style MainWay quota victim choice.

    The harness copies the kernel's current ``allocation`` (per-core
    MainWay quotas) into :attr:`allocation` after each kernel access
    (repartitioning happens at the *start* of the kernel's access, so
    the post-access value is what the fill used).  Victim choice then
    mirrors ``PartitionedNUCache._choose_victim``: the LRU line of an
    over-quota core, else the requester's own LRU line, else global LRU.
    """

    def __init__(self, num_sets: int, main_ways: int, deli_ways: int,
                 num_cores: int, deli_replacement: str,
                 profiler: "RefNextUseProfiler") -> None:
        super().__init__(num_sets, main_ways, deli_ways, deli_replacement, profiler)
        self.num_cores = num_cores
        self.allocation: List[int] = []

    def _choose_victim(self, set_index: int, requester: int) -> Dict:
        main = self.main[set_index]
        counts: Dict[int, int] = {}
        for entry in main:
            counts[entry["core"]] = counts.get(entry["core"], 0) + 1
        allocation = self.allocation
        for entry in reversed(main):  # LRU end first
            core = entry["core"]
            if core == requester or not 0 <= core < len(allocation):
                continue
            if counts.get(core, 0) > allocation[core]:
                return entry
        for entry in reversed(main):
            if entry["core"] == requester:
                return entry
        return main[-1]


class RefNextUseProfiler:
    """Snapshot-based Next-Use monitor (reference for the event log).

    Same interface and semantics as
    :class:`~repro.nucache.nextuse.NextUseProfiler`, by the direct
    algorithm: every profiled eviction stores a tuple of all candidate
    eviction counters, and a reuse subtracts that snapshot from the
    current counters to get its delta vector.
    """

    def __init__(self, history_capacity: int, sample_period: int = 1) -> None:
        self.history_capacity = history_capacity
        self.sample_period = sample_period
        self._num_slots = 0
        self._evictions: List[int] = []
        # block_addr -> (pc_slot, eviction-counter snapshot)
        self._history: "OrderedDict[int, Tuple[int, Tuple[int, ...]]]" = OrderedDict()
        self._events: List[Tuple[int, Tuple[int, ...]]] = []

    def begin_epoch(self, num_slots: int) -> None:
        """Start an epoch over ``num_slots`` candidate PCs, history cleared."""
        self._num_slots = num_slots
        self._evictions = [0] * num_slots
        self._history.clear()
        self._events = []

    def on_eviction(self, set_index: int, block_addr: int, pc_slot: int) -> None:
        """Count a sampled candidate eviction and snapshot all counters."""
        if pc_slot < 0 or set_index % self.sample_period != 0:
            return
        self._evictions[pc_slot] += 1
        self._history[block_addr] = (pc_slot, tuple(self._evictions))
        self._history.move_to_end(block_addr)
        if len(self._history) > self.history_capacity:
            self._history.popitem(last=False)

    def on_reuse(self, set_index: int, block_addr: int) -> bool:
        """Record a re-reference's delta vector; False if not in history."""
        if set_index % self.sample_period != 0:
            return False
        entry = self._history.pop(block_addr, None)
        if entry is None:
            return False
        pc_slot, snapshot = entry
        deltas = tuple(
            current - past for current, past in zip(self._evictions, snapshot)
        )
        self._events.append((pc_slot, deltas))
        return True

    def finish_epoch(self) -> EpochProfile:
        """The epoch's reuse events and eviction totals."""
        return EpochProfile(
            self._num_slots,
            [pc_slot for pc_slot, _deltas in self._events],
            [deltas for _pc_slot, deltas in self._events],
            self._evictions,
            self.sample_period,
        )


#: Twin-policy factories for :class:`RefPolicyCache`, by organization
#: name: ``name -> (seed, num_cores) -> PolicyFactory``.
_TWIN_FACTORIES: Dict[str, Callable] = {
    "fifo": lambda seed, cores: fifo_factory(),
    "nru": lambda seed, cores: nru_factory(),
    "plru": lambda seed, cores: plru_factory(),
    "lip": lambda seed, cores: lip_factory(),
    "srrip": lambda seed, cores: srrip_factory(),
    "random": lambda seed, cores: random_factory(seed),
    "bip": lambda seed, cores: bip_factory(seed),
    "dip": lambda seed, cores: dip_factory(seed),
    "brrip": lambda seed, cores: brrip_factory(seed),
    "drrip": lambda seed, cores: drrip_factory(seed),
    "tadip": lambda seed, cores: tadip_factory(cores, seed),
    "ship": lambda seed, cores: ship_factory(bypass=False),
    "ship-bypass": lambda seed, cores: ship_factory(bypass=True),
    "sdbp": lambda seed, cores: sdbp_factory(),
}


def make_reference(policy: str, config: SystemConfig, seed: int = 0):
    """Build the reference model matching ``make_llc(policy, config, seed)``.

    Raises :class:`ReproError` for organizations with no reference model
    (UCP and PIPP are structural baselines checked by the sanitizer only).
    """
    geometry = config.llc
    if policy == "lru":
        return RefLRUCache(geometry.num_sets, geometry.ways)
    nucache = config.nucache
    if policy in ("nucache", "nucache-ucp"):
        profiler = RefNextUseProfiler(nucache.history_capacity, nucache.sample_period)
        profiler.begin_epoch(0)
        split = (geometry.num_sets, geometry.ways - nucache.deli_ways, nucache.deli_ways)
        if policy == "nucache":
            return RefNUCache(*split, nucache.deli_replacement, profiler)
        return RefPartitionedNUCache(
            *split, config.num_cores, nucache.deli_replacement, profiler
        )
    builder = _TWIN_FACTORIES.get(policy)
    if builder is None:
        raise ReproError(f"no differential reference model for policy {policy!r}")
    return RefPolicyCache(
        geometry.num_sets, geometry.ways, builder(seed, config.num_cores)
    )


class DifferentialHarness:
    """Drives a kernel LLC and its reference in lockstep, diffing state.

    Call :meth:`access` instead of ``llc.access``; it performs the
    kernel access, mirrors it into the reference, and compares hit/miss
    outcome, the accessed set's full contents (per-way or in recency/
    FIFO order), and the global counters.  For NUcache, each epoch the
    kernel's controller closes is also compared with the reference
    profiler's epoch profile, which checks the Next-Use monitor on the
    calls the cache really makes; the harness must start with the
    kernel fresh.  With
    ``sanitize=True`` (the default) the structural sanitizer also runs
    over the kernel each access, so the fuzzer catches corruption even
    when both models accidentally agree.
    """

    def __init__(self, kernel, reference, sanitize: bool = True) -> None:
        self.kernel = kernel
        self.reference = reference
        self.sanitize = sanitize
        self.accesses = 0
        self._is_nucache = isinstance(kernel, NUCache)
        self._is_partitioned = isinstance(kernel, PartitionedNUCache)

    def access(self, block_addr: int, core: int, pc: int, is_write: bool) -> bool:
        """One lockstep access; raises :class:`InvariantViolation` on diff."""
        kernel = self.kernel
        set_index, tag = kernel.split_address(block_addr)
        if self._is_nucache:
            # Captured *before* the kernel access: epoch rotation fires
            # at the end of the access, after the fill decided retention
            # and the victim's profiled slot.
            controller = kernel.controller
            selected = frozenset(controller.selected_keys())
            slot_table = dict(controller._slot_of)
            epochs = controller.epochs_completed
        hit = kernel.access(block_addr, core, pc, is_write)
        if self._is_partitioned:
            # Read *after* the access: repartitioning fires at the start
            # of the access, so this is the allocation the fill used.
            self.reference.allocation = list(kernel.allocation)
        if self._is_nucache:
            ref_hit = self.reference.access(
                set_index, tag, core, pc, is_write,
                lambda victim_core, victim_pc: (victim_core, victim_pc) in selected,
                lambda victim_core, victim_pc: slot_table.get(
                    (victim_core, victim_pc), -1
                ),
            )
        else:
            ref_hit = self.reference.access(set_index, tag, core, pc, is_write)
        self.accesses += 1
        diffs: List[str] = []
        if hit != ref_hit:
            diffs.append(
                f"outcome diverged: kernel {'hit' if hit else 'miss'}, "
                f"reference {'hit' if ref_hit else 'miss'}"
            )
        diffs.extend(self._diff_set(set_index))
        diffs.extend(self._diff_counters())
        if self._is_nucache and controller.epochs_completed != epochs:
            diffs.extend(self._diff_profile())
        if self.sanitize:
            diffs.extend(check_llc(kernel))
        if diffs:
            self._raise(diffs, set_index, block_addr, core, pc, is_write)
        return hit

    # ------------------------------------------------------------------
    # State comparison
    # ------------------------------------------------------------------

    def _diff_set(self, set_index: int) -> List[str]:
        """Compare the accessed set's contents between kernel and reference."""
        if self._is_nucache:
            return self._diff_nucache_set(set_index)
        kernel_set = self.kernel.sets[set_index]
        reference = self.reference
        kernel_view = {
            way: (kernel_set._tags[way], kernel_set._dirty[way])
            for way in range(kernel_set._ways)
            if kernel_set._valid[way]
        }
        ref_view = dict(reference.contents[set_index])
        diffs: List[str] = []
        if kernel_view != ref_view:
            diffs.append(
                f"set {set_index} contents diverged: kernel {kernel_view!r} "
                f"vs reference {ref_view!r}"
            )
        if isinstance(reference, RefLRUCache):
            stack = kernel_set.policy.stack
            kernel_order = [way for way in stack if kernel_set._valid[way]]
            if kernel_order != reference.order[set_index]:
                diffs.append(
                    f"set {set_index} LRU order diverged: kernel "
                    f"{kernel_order} vs reference {reference.order[set_index]}"
                )
        return diffs

    def _diff_nucache_set(self, set_index: int) -> List[str]:
        """Compare MainWay recency order and DeliWay FIFO order."""
        nu_set = self.kernel.sets[set_index]
        indexed = set(nu_set.tag_to_way.values())
        kernel_main = [
            (nu_set.tags[way], nu_set.dirty[way])
            for way in nu_set.stack
            if way in indexed
        ]
        ref_main = [
            (entry["tag"], entry["dirty"])
            for entry in self.reference.main[set_index]
        ]
        kernel_deli = [
            (tag, entry.dirty) for tag, entry in nu_set.deli.items()
        ]
        ref_deli = [
            (entry["tag"], entry["dirty"])
            for entry in self.reference.deli[set_index]
        ]
        diffs: List[str] = []
        if kernel_main != ref_main:
            diffs.append(
                f"set {set_index} MainWays diverged (MRU first): kernel "
                f"{kernel_main!r} vs reference {ref_main!r}"
            )
        if kernel_deli != ref_deli:
            diffs.append(
                f"set {set_index} DeliWays diverged (oldest first): kernel "
                f"{kernel_deli!r} vs reference {ref_deli!r}"
            )
        return diffs

    def _diff_profile(self) -> List[str]:
        """Compare the epoch the kernel just closed with the reference's.

        Then opens the reference profiler's next epoch over the kernel's
        new candidate table.
        """
        controller = self.kernel.controller
        profiler = self.reference.profiler
        expected = profiler.finish_epoch()
        profiler.begin_epoch(len(controller._slot_of))
        actual = controller.last_profile
        pairs = [
            ("candidate slots", actual.num_slots, expected.num_slots),
            ("sample period", actual.sample_period, expected.sample_period),
            ("evictions per slot", actual.evictions_per_slot,
             expected.evictions_per_slot),
            ("event slots", actual.event_pc.tolist(), expected.event_pc.tolist()),
            ("event deltas", actual.event_deltas.tolist(),
             expected.event_deltas.tolist()),
        ]
        return [
            f"epoch {controller.epochs_completed} Next-Use profile diverged in "
            f"its {name}: kernel {kernel_value!r} vs reference {reference_value!r}"
            for name, kernel_value, reference_value in pairs
            if kernel_value != reference_value
        ]

    def _diff_counters(self) -> List[str]:
        """Compare global counters (implicitly diffs victim choices)."""
        kernel = self.kernel
        total = kernel.stats.total
        reference = self.reference
        pairs = [
            ("hits", total.hits, reference.hits),
            ("misses", total.misses, reference.misses),
            ("evictions", total.evictions, reference.evictions),
            ("writebacks", total.writebacks, reference.writebacks),
        ]
        if self._is_nucache:
            pairs.extend([
                ("deli_hits", kernel.deli_hits, reference.deli_hits),
                ("retentions", kernel.retentions, reference.retentions),
                ("promotions", kernel.promotions, reference.promotions),
                ("deli_evictions", kernel.deli_evictions,
                 reference.deli_evictions),
            ])
        elif isinstance(kernel, SetAssociativeCache):
            pairs.append(("fills", kernel.fills, reference.fills))
        return [
            f"counter {name} diverged: kernel {kernel_value}, reference "
            f"{reference_value}"
            for name, kernel_value, reference_value in pairs
            if kernel_value != reference_value
        ]

    def _raise(self, diffs: List[str], set_index: int, block_addr: int,
               core: int, pc: int, is_write: bool) -> None:
        """Raise an :class:`InvariantViolation` with both state views."""
        snapshot = snapshot_llc(self.kernel, [set_index])
        snapshot["reference"] = self._reference_snapshot(set_index)
        snapshot["access"] = {
            "index": self.accesses - 1,
            "block_addr": block_addr,
            "core": core,
            "pc": pc,
            "is_write": is_write,
            "set": set_index,
        }
        context = f"lockstep access {self.accesses - 1}"
        head = diffs[0]
        more = f" (+{len(diffs) - 1} more)" if len(diffs) > 1 else ""
        raise InvariantViolation(
            f"kernel diverged from reference model at {context}: {head}{more}",
            violations=diffs,
            snapshot=snapshot,
            context=context,
        )

    def _reference_snapshot(self, set_index: int) -> Dict:
        """Serialize the reference's view of one set for the snapshot."""
        reference = self.reference
        if self._is_nucache:
            return {
                "main": list(reference.main[set_index]),
                "deli": list(reference.deli[set_index]),
            }
        view: Dict = {"contents": {
            str(way): list(line)
            for way, line in sorted(reference.contents[set_index].items())
        }}
        if isinstance(reference, RefLRUCache):
            view["order"] = list(reference.order[set_index])
        return view
