"""One set of a set-associative cache.

The set owns its way slots, a tag-to-way index for O(1) lookup, and a
per-set replacement policy.  It knows nothing about addresses,
statistics or hierarchy — the owning cache handles those.

Storage is *slot arrays*: parallel per-way lists (``_valid``, ``_tags``,
``_dirty``, ...) instead of a list of :class:`CacheLine` objects.  The
access loop then touches one list element per field instead of chasing
an object and its attribute, which is measurably faster in CPython.  The
object view survives for introspection: :attr:`lines` and
:meth:`valid_lines` materialize :class:`CacheLine` snapshots on demand,
so tests and reports keep the same API while the hot path never builds
an object.

LRU fast path: when the policy is exactly :class:`LRUPolicy`,
:meth:`lookup` and :meth:`allocate` perform the recency-stack updates
inline (hit → move to MRU, victim → stack bottom) instead of calling
``policy.touch``/``victim``/``insert``.  The inlined operations are the
literal bodies of the LRU methods, so behaviour is identical; subclasses
with different semantics (FIFO, LIP, DIP, ...) fail the exact-type check
and take the generic path.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterator, List, Optional, Tuple

from repro.cache.line import CacheLine
from repro.cache.replacement.base import ReplacementPolicy
from repro.cache.replacement.basic import LRUPolicy


class CacheSet:
    """The ways of one set plus their replacement state."""

    __slots__ = (
        "policy",
        "_ways",
        "_is_lru",
        "_tag_to_way",
        "_free_ways",
        "_valid",
        "_tags",
        "_dirty",
        "_cores",
    )

    def __init__(self, ways: int, policy: ReplacementPolicy) -> None:
        self.policy = policy
        self._ways = ways
        # Exact type check: LRU subclasses (FIFO, LIP, ...) change the
        # touch/insert semantics and must take the generic path.
        self._is_lru = type(policy) is LRUPolicy
        self._tag_to_way: dict = {}
        # Invalid ways are consumed highest-first so pop() is O(1).
        self._free_ways = list(range(ways - 1, -1, -1))
        self._valid = [False] * ways
        self._tags = [0] * ways
        self._dirty = [False] * ways
        self._cores = [0] * ways

    def find(self, tag: int) -> int:
        """Way currently holding ``tag``, or -1."""
        return self._tag_to_way.get(tag, -1)

    def lookup(self, tag: int, core: int, is_write: bool) -> int:
        """Service a potential hit in one call.

        Returns the way holding ``tag`` after recording the hit on it
        (the policy's ``touch``, and the dirty bit on a write), or -1 on
        miss (no state changes).
        """
        way = self._tag_to_way.get(tag, -1)
        if way >= 0:
            if self._is_lru:
                # Inline LRUPolicy.touch: promote to MRU.  Skipping the
                # list surgery when the way already sits at MRU changes
                # no state (remove+insert at 0 is the identity there).
                stack = self.policy.stack
                if stack[0] != way:
                    stack.remove(way)
                    stack.insert(0, way)
            else:
                self.policy.touch(way, core)
            if is_write:
                self._dirty[way] = True
        return way

    def allocate(
        self, tag: int, core: int, pc: int, is_write: bool
    ) -> Optional[Tuple[int, bool]]:
        """Fill ``tag`` into the set, evicting if necessary.

        Free ways are filled without consulting ``policy.victim``, but
        ``policy.insert`` runs after *every* fill — free-way or victim —
        which is the contract every policy's state machine relies on.

        Returns:
            ``(evicted_tag, evicted_dirty)`` when a valid line was
            displaced, else ``None``.
        """
        evicted: Optional[Tuple[int, bool]] = None
        tags = self._tags
        if self._free_ways:
            way = self._free_ways.pop()
            if self._is_lru:
                # Inline LRUPolicy.insert: place at MRU.
                stack = self.policy.stack
                stack.remove(way)
                stack.insert(0, way)
            else:
                self.policy.insert(way, core, pc)
        elif self._is_lru:
            # Inline LRUPolicy.victim (stack bottom) + insert (to MRU).
            stack = self.policy.stack
            way = stack.pop()
            stack.insert(0, way)
            evicted = (tags[way], self._dirty[way])
            del self._tag_to_way[tags[way]]
        else:
            way = self.policy.victim()
            evicted = (tags[way], self._dirty[way])
            del self._tag_to_way[tags[way]]
            self.policy.insert(way, core, pc)
        self._valid[way] = True
        tags[way] = tag
        self._dirty[way] = is_write
        self._cores[way] = core
        self._tag_to_way[tag] = way
        return evicted

    @property
    def occupancy(self) -> int:
        """Number of valid lines in the set."""
        return len(self._tag_to_way)

    def valid_cores(self) -> Iterator[int]:
        """Iterate the filling core of each valid line, in way order."""
        return compress(self._cores, self._valid)

    def _line_view(self, way: int) -> CacheLine:
        """Materialize one way's state as a :class:`CacheLine` snapshot."""
        line = CacheLine()
        line.valid = self._valid[way]
        line.tag = self._tags[way]
        line.dirty = self._dirty[way]
        line.core = self._cores[way]
        return line

    @property
    def lines(self) -> List[CacheLine]:
        """Snapshot of every way as :class:`CacheLine` objects.

        Introspection only (tests, reports): the snapshots are fresh
        objects, so mutating them does not change the set.
        """
        return [self._line_view(way) for way in range(self._ways)]

    def valid_lines(self) -> Iterator[CacheLine]:
        """Iterate snapshots of the valid lines (unspecified order)."""
        return (
            self._line_view(way) for way in range(self._ways) if self._valid[way]
        )
