"""Memory-system substrate: address space, caches, DRAM, NoC."""

from repro.memory.address import (
    DATA_CLASSES,
    LINE_BYTES,
    AddressSpace,
    Region,
)
from repro.memory.cache import (
    CacheStats,
    FastLruCache,
    SetAssocCache,
    make_cache,
)
from repro.memory.dram import DramModel, TrafficCounter
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.noc import MeshNoc, NocStats

__all__ = [
    "AddressSpace",
    "CacheStats",
    "DATA_CLASSES",
    "DramModel",
    "FastLruCache",
    "LINE_BYTES",
    "MemoryHierarchy",
    "MeshNoc",
    "NocStats",
    "Region",
    "SetAssocCache",
    "TrafficCounter",
    "make_cache",
]
