"""Multi-level cache hierarchy with per-class off-chip traffic accounting.

The hierarchy mirrors Table II: per-core L1/L2, a shared LLC, and DRAM.
The functional engine path drives it access-by-access; the scheme-level
traffic model drives it with a mix of per-access calls (scattered data)
and bulk calls (sequential streams, which are fully predictable and need
no per-line simulation).

Every DRAM transaction is attributed to the data class of its address
(via the :class:`~repro.memory.address.AddressSpace`) or to an explicit
class label, producing the paper's traffic breakdowns.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.config import SystemConfig
from repro.memory.address import AddressSpace, LINE_BYTES
from repro.memory.cache import FastLruCache, make_cache
from repro.memory.dram import DramModel
from repro.memory.noc import MeshNoc


class MemoryHierarchy:
    """L1 -> L2 -> LLC -> DRAM, shared LLC across cores."""

    def __init__(self, config: SystemConfig,
                 address_space: Optional[AddressSpace] = None,
                 fast: bool = False) -> None:
        self.config = config
        self.space = address_space if address_space is not None \
            else AddressSpace()
        self.l1 = [make_cache(config.l1d, fast)
                   for _ in range(config.num_cores)]
        self.l2 = [make_cache(config.l2, fast)
                   for _ in range(config.num_cores)]
        self.llc = make_cache(config.llc, fast)
        self.dram = DramModel(config.memory, config.freq_ghz)
        self.noc = MeshNoc(config.noc)

    # -- per-access path (functional engine, scattered data) --------------

    def access(self, addr: int, nbytes: int = 8, core: int = 0,
               write: bool = False, data_class: Optional[str] = None,
               start_level: str = "l1") -> int:
        """Access bytes at ``addr``; returns latency in cycles.

        ``start_level`` selects where the request enters: cores start at
        ``"l1"``, the SpZip fetcher issues to its core's ``"l2"``
        (Sec III-B), and the compressor issues to the ``"llc"``
        (Sec III-C).
        """
        if data_class is None:
            data_class = self.space.data_class_of(addr)
        first = addr // LINE_BYTES
        last = (addr + max(1, nbytes) - 1) // LINE_BYTES
        latency = 0
        for line in range(first, last + 1):
            latency = max(latency, self._access_line(line, core, write,
                                                     data_class,
                                                     start_level))
        return latency

    def _access_line(self, line: int, core: int, write: bool,
                     data_class: str, start_level: str) -> int:
        latency = 0
        if start_level == "l1":
            latency += self.config.l1d.latency_cycles
            if self.l1[core].access(line, write):
                return latency
            start_level = "l2"
        if start_level == "l2":
            latency += self.config.l2.latency_cycles
            if self.l2[core].access(line, write):
                return latency
            start_level = "llc"
        if start_level == "llc":
            latency += int(self.noc.average_llc_latency(
                self.config.llc.latency_cycles))
            if self.llc.access(line, write):
                return latency
        latency += self.config.memory.latency_cycles
        self.dram.access(line * LINE_BYTES, LINE_BYTES, data_class,
                         write=False)
        # Dirty evictions become writeback traffic; the cache models count
        # them, and we attribute them to the same class (approximation:
        # victim class equals the filling class, true for phase-local data).
        return latency

    def access_many(self, lines, core: int = 0, write: bool = False,
                    data_class: str = "other",
                    start_level: str = "l1") -> np.ndarray:
        """Batch of line-granular accesses; per-line latencies.

        Bit-identical counters to looping :meth:`access` one line at a
        time: when every traversed level is a :class:`FastLruCache`
        (``fast=True`` hierarchies), each level filters the stream
        vectorized — a level's state only ever depends on the ordered
        subsequence of upper-level misses, so level-at-a-time batch
        replay equals the interleaved walk.  Exact set-associative
        levels fall back to the scalar walk, same interface.
        """
        lines = np.ascontiguousarray(lines, dtype=np.int64)
        order = ("l1", "l2", "llc")
        traversed = order[order.index(start_level):]
        caches = {"l1": self.l1[core], "l2": self.l2[core],
                  "llc": self.llc}
        if not all(isinstance(caches[level], FastLruCache)
                   for level in traversed):
            return np.array([self._access_line(line, core, write,
                                               data_class, start_level)
                             for line in lines.tolist()],
                            dtype=np.int64)
        latency = np.zeros(lines.size, dtype=np.int64)
        level_cost = {
            "l1": self.config.l1d.latency_cycles,
            "l2": self.config.l2.latency_cycles,
            "llc": int(self.noc.average_llc_latency(
                self.config.llc.latency_cycles)),
        }
        pending = np.arange(lines.size)
        for level in traversed:
            latency[pending] += level_cost[level]
            hit = caches[level].access_many(lines[pending], write)
            pending = pending[~hit]
            if pending.size == 0:
                return latency
        latency[pending] += self.config.memory.latency_cycles
        self.dram.access_lines(lines[pending], data_class)
        return latency

    # -- bulk path (sequential streams) ------------------------------------

    def stream_read(self, nbytes: int, data_class: str) -> None:
        """Account a sequential read stream that misses on-chip caches."""
        self.dram.add_bulk(nbytes, data_class, write=False, sequential=True)

    def stream_write(self, nbytes: int, data_class: str) -> None:
        """Account a sequential streaming write (full-line writes)."""
        self.dram.add_bulk(nbytes, data_class, write=True, sequential=True)

    def finalize_writebacks(self, data_class: str = "other") -> int:
        """Account LLC dirty-eviction writebacks as off-chip write traffic.

        Called once at the end of a functional run (the per-access path
        cannot know a victim's class, so the caller labels the phase).
        Returns the number of bytes added.
        """
        nbytes = self.llc.stats.writebacks * LINE_BYTES
        if nbytes:
            self.dram.add_bulk(nbytes, data_class, write=True,
                               sequential=False)
            self.llc.stats.writebacks = 0
        return nbytes

    # -- reporting ----------------------------------------------------------

    def offchip_bytes(self) -> int:
        return self.dram.traffic.total()

    def traffic_by_class(self):
        return self.dram.traffic.by_class()
