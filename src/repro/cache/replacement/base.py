"""Replacement-policy interface.

A policy instance manages the replacement state of *one* cache set (its
``ways`` ways, numbered ``0 .. ways-1``).  The owning
:class:`~repro.cache.cache.SetAssociativeCache` calls:

* :meth:`ReplacementPolicy.touch` on every hit,
* :meth:`ReplacementPolicy.victim` when the set is full and a fill needs
  a slot (the returned way is then overwritten),
* :meth:`ReplacementPolicy.insert` after every fill (whether the slot came
  from :meth:`victim` or was an invalid way),
* :meth:`ReplacementPolicy.invalidate` when a way is explicitly dropped.

Policies that need cache-global state (set dueling, PIPP allocations)
receive a shared state object at construction; the per-set instance holds
only per-set state.  Policies are created by a *factory* — see
:data:`PolicyFactory` — so the cache itself stays policy-agnostic.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable


class ReplacementPolicy(ABC):
    """Replacement state for one cache set."""

    #: Human-readable policy name, used in reports.
    name = "abstract"

    def __init__(self, ways: int) -> None:
        if ways <= 0:
            raise ValueError(f"ways must be positive, got {ways}")
        self.ways = ways

    @abstractmethod
    def touch(self, way: int, core: int) -> None:
        """Record a hit on ``way`` by ``core``."""

    @abstractmethod
    def victim(self) -> int:
        """Choose the way to evict; only called when the set is full."""

    @abstractmethod
    def insert(self, way: int, core: int, pc: int = 0) -> None:
        """Record a fill into ``way`` by ``core`` from access site ``pc``
        (i.e., a miss happened)."""

    def should_bypass(self, core: int, pc: int) -> bool:
        """Whether a miss by (core, pc) should skip allocation.

        Consulted by the owning cache before filling; the default never
        bypasses.  PC-predictive policies (SHiP with bypassing, dead-
        block prediction) override this.
        """
        return False

    def invalidate(self, way: int) -> None:
        """Record that ``way`` was explicitly invalidated.

        The default treats the way as the next victim candidate by doing
        nothing; stack-based policies override this to remove the way
        from their recency order.
        """


#: Factory signature: ``factory(ways, set_index) -> ReplacementPolicy``.
#: The set index lets set-dueling policies assign leader/follower roles.
PolicyFactory = Callable[[int, int], ReplacementPolicy]


class RecencyStackPolicy(ReplacementPolicy):
    """Base for policies expressible as a recency stack.

    ``self.stack`` lists way numbers from MRU (index 0) to LRU (last).
    Subclasses decide the *insertion position* of a fill and whether hits
    promote; eviction is always the stack bottom.  This family covers
    LRU, FIFO, LIP, BIP, DIP, TADIP and PIPP.
    """

    name = "recency-stack"

    def __init__(self, ways: int) -> None:
        super().__init__(ways)
        # Start with every way present so victim() is total from the
        # first fill; the cache fills invalid ways in stack order anyway.
        self.stack = list(range(ways))

    def touch(self, way: int, core: int) -> None:
        """Default hit behaviour: promote to MRU (LRU semantics)."""
        self.stack.remove(way)
        self.stack.insert(0, way)

    def victim(self) -> int:
        return self.stack[-1]

    def insert(self, way: int, core: int, pc: int = 0) -> None:
        """Default fill behaviour: insert at MRU."""
        self.place(way, 0)

    def place(self, way: int, position: int) -> None:
        """Move ``way`` to ``position`` in the stack (0 = MRU)."""
        self.stack.remove(way)
        self.stack.insert(position, way)

    def invalidate(self, way: int) -> None:
        """Demote an invalidated way straight to LRU."""
        self.stack.remove(way)
        self.stack.append(way)
