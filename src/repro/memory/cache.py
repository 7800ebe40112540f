"""Fully-associative LRU cache model.

:class:`FastLruCache` is a fully-associative LRU over an ``OrderedDict``
with one interface, ``access(line, write) -> hit``.  A 16-way 32 MB
cache behaves almost identically to fully-associative LRU for these
workloads, so both model levels use it: the functional engines through
:class:`~repro.memory.hierarchy.MemoryHierarchy`, and the pricer's
replay kernels (:mod:`repro.memory.batch`) compute the same LRU offline.
It tracks hits, misses, and dirty evictions (writebacks).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass


@dataclass
class CacheStats:
    """Access counters for one cache."""

    hits: int = 0
    misses: int = 0
    writebacks: int = 0
    evictions: int = 0


class FastLruCache:
    """Fully-associative LRU cache keyed by line address."""

    def __init__(self, capacity_lines: int) -> None:
        if capacity_lines <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_lines = capacity_lines
        self.stats = CacheStats()
        self._lines: "OrderedDict[int, bool]" = OrderedDict()  # line->dirty

    def access(self, line: int, write: bool = False) -> bool:
        lines = self._lines
        if line in lines:
            self.stats.hits += 1
            lines.move_to_end(line)
            if write:
                lines[line] = True
            return True
        self.stats.misses += 1
        if len(lines) >= self.capacity_lines:
            _victim, dirty = lines.popitem(last=False)
            self.stats.evictions += 1
            if dirty:
                self.stats.writebacks += 1
        lines[line] = write
        return False

    def contains(self, line: int) -> bool:
        return line in self._lines

    def flush_dirty(self) -> int:
        """Write back every dirty line; returns how many were dirty."""
        dirty = sum(1 for d in self._lines.values() if d)
        self.stats.writebacks += dirty
        for line in self._lines:
            self._lines[line] = False
        return dirty
