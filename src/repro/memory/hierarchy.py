"""Multi-level cache hierarchy with per-class off-chip traffic accounting.

The hierarchy mirrors Table II: per-core L1/L2, a shared LLC, and DRAM,
each cache level a fully-associative LRU of the level's scaled capacity.
The functional engines drive it access-by-access; the scheme-level
traffic model does not use it (it replays its streams through the
offline LRU kernels of :mod:`repro.memory.batch`).

Every DRAM transaction is attributed to the data class of its address
(via the :class:`~repro.memory.address.AddressSpace`) or to an explicit
class label, producing the paper's traffic breakdowns.
"""

from __future__ import annotations

from typing import Optional

from repro.config import SystemConfig
from repro.memory.address import AddressSpace, LINE_BYTES
from repro.memory.cache import FastLruCache
from repro.memory.dram import TrafficCounter
from repro.memory.noc import MeshNoc


class MemoryHierarchy:
    """L1 -> L2 -> LLC -> DRAM, shared LLC across cores."""

    def __init__(self, config: SystemConfig,
                 address_space: Optional[AddressSpace] = None) -> None:
        self.config = config
        self.space = address_space if address_space is not None \
            else AddressSpace()
        self.l1 = [FastLruCache(config.l1d.num_lines)
                   for _ in range(config.num_cores)]
        self.l2 = [FastLruCache(config.l2.num_lines)
                   for _ in range(config.num_cores)]
        self.llc = FastLruCache(config.llc.num_lines)
        #: Off-chip bytes by data class and direction.
        self.traffic = TrafficCounter()
        self.noc = MeshNoc(config.noc)
        #: Core-to-LLC-bank round trip: a constant of the config.
        self._llc_latency = int(self.noc.average_llc_latency(
            config.llc.latency_cycles))

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
            latency += self._llc_latency
            if self.llc.access(line, write):
                return latency
        latency += self.config.memory.latency_cycles
        self.traffic.add(data_class, LINE_BYTES, write=False)
        # Dirty evictions become writeback traffic; the cache models count
        # them, and we attribute them to the same class (approximation:
        # victim class equals the filling class, true for phase-local data).
        return latency

    # -- end of run -----------------------------------------------------------

    def finalize_writebacks(self, data_class: str = "other") -> int:
        """Account LLC dirty-eviction writebacks as off-chip write traffic.

        Meant to run once at the end of a functional run (the per-access
        path cannot know a victim's class, so the caller labels the
        phase).  Returns the number of bytes added.
        """
        nbytes = self.llc.stats.writebacks * LINE_BYTES
        if nbytes:
            self.traffic.add(data_class, nbytes, write=True)
            self.llc.stats.writebacks = 0
        return nbytes

    # -- reporting ----------------------------------------------------------

    def offchip_bytes(self) -> int:
        return self.traffic.total()

    def traffic_by_class(self):
        return self.traffic.by_class()
