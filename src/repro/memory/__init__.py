"""Memory-system substrate: address space, caches, DRAM, NoC."""

from repro.memory.address import (
    DATA_CLASSES,
    LINE_BYTES,
    AddressSpace,
    Region,
)
from repro.memory.cache import CacheStats, FastLruCache
from repro.memory.dram import TrafficCounter
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.noc import MeshNoc

__all__ = [
    "AddressSpace",
    "CacheStats",
    "DATA_CLASSES",
    "FastLruCache",
    "LINE_BYTES",
    "MemoryHierarchy",
    "MeshNoc",
    "Region",
    "TrafficCounter",
]
