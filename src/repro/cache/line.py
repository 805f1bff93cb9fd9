"""Cache line bookkeeping.

A :class:`CacheLine` is a mutable record of one way of one set.  It is
deliberately a ``__slots__`` class rather than a dataclass: the simulator
allocates one per way at construction and mutates it on the hot path, and
attribute access on slots is measurably faster than on dict-backed
instances.
"""

from __future__ import annotations

#: Sentinel PC slot meaning "not brought in by a tracked candidate PC".
NO_PC_SLOT = -1


class CacheLine:
    """One way of a cache set.

    Attributes:
        valid: whether the slot holds a line.
        tag: tag of the held line (meaningless when invalid).
        dirty: set by write hits/fills; drives writeback counting.
        core: id of the core whose access filled the line.
    """

    __slots__ = ("valid", "tag", "dirty", "core")

    def __init__(self) -> None:
        self.valid = False
        self.tag = 0
        self.dirty = False
        self.core = 0

    def fill(self, tag: int, core: int, dirty: bool) -> None:
        """Install a new line into this slot."""
        self.valid = True
        self.tag = tag
        self.dirty = dirty
        self.core = core

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self.valid:
            return "<line invalid>"
        flags = "D" if self.dirty else "-"
        return f"<line tag={self.tag:#x} core={self.core} {flags}>"
