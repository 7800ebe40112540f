"""Main-memory model: 4 FR-FCFS DDR3-1600 controllers (Table II).

The model is bandwidth-first, matching the paper's finding that these
workloads saturate DRAM bandwidth: it accounts every off-chip byte by
data class and direction, estimates service cycles from peak bandwidth
de-rated by the achieved row-buffer locality (the first-order effect of
FR-FCFS scheduling), and reports per-class traffic for the Fig 15b-style
breakdowns.

Row-buffer modelling: addresses interleave across controllers at 64-byte
granularity; each controller tracks its open row (8 KB rows).  Sequential
streams hit the open row and achieve peak burst bandwidth; scattered
accesses force activates/precharges, de-rating effective bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.config import MemoryConfig
from repro.memory.address import DATA_CLASSES

_ROW_BYTES = 8192
_LINE_BYTES = 64
#: Effective bandwidth multiplier for row-buffer misses (activate +
#: precharge overhead roughly halves achievable burst bandwidth).
_ROW_MISS_DERATE = 0.55


@dataclass
class TrafficCounter:
    """Bytes moved per data class, split by direction."""

    read_bytes: Dict[str, int] = field(
        default_factory=lambda: {cls: 0 for cls in DATA_CLASSES})
    write_bytes: Dict[str, int] = field(
        default_factory=lambda: {cls: 0 for cls in DATA_CLASSES})

    def add(self, data_class: str, nbytes: int, write: bool) -> None:
        bucket = self.write_bytes if write else self.read_bytes
        bucket[data_class] = bucket.get(data_class, 0) + nbytes

    def total(self, data_class: str = None) -> int:
        if data_class is None:
            return sum(self.read_bytes.values()) + sum(
                self.write_bytes.values())
        return (self.read_bytes.get(data_class, 0)
                + self.write_bytes.get(data_class, 0))

    def by_class(self) -> Dict[str, int]:
        return {cls: self.total(cls) for cls in DATA_CLASSES}

    def merge(self, other: "TrafficCounter") -> None:
        for cls, nbytes in other.read_bytes.items():
            self.read_bytes[cls] = self.read_bytes.get(cls, 0) + nbytes
        for cls, nbytes in other.write_bytes.items():
            self.write_bytes[cls] = self.write_bytes.get(cls, 0) + nbytes


class DramModel:
    """Bandwidth/latency accounting for the memory controllers."""

    def __init__(self, config: MemoryConfig, freq_ghz: float = 3.5) -> None:
        self.config = config
        self.freq_ghz = freq_ghz
        self.traffic = TrafficCounter()
        self.row_hits = 0
        self.row_misses = 0
        self._open_rows = [-1] * config.controllers

    @property
    def peak_bytes_per_cycle(self) -> float:
        return self.config.total_gb_per_sec / self.freq_ghz

    def access(self, addr: int, nbytes: int, data_class: str,
               write: bool = False) -> None:
        """Account one memory transaction, updating row-buffer state."""
        self.traffic.add(data_class, nbytes, write)
        for line in range(addr // _LINE_BYTES,
                          (addr + max(1, nbytes) - 1) // _LINE_BYTES + 1):
            controller = line % self.config.controllers
            row = line // (self.config.controllers * (_ROW_BYTES
                                                      // _LINE_BYTES))
            if self._open_rows[controller] == row:
                self.row_hits += 1
            else:
                self.row_misses += 1
                self._open_rows[controller] = row

    def add_bulk(self, nbytes: int, data_class: str, write: bool = False,
                 sequential: bool = True) -> None:
        """Account a bulk transfer without per-line state walks.

        Sequential transfers count as row hits (after one miss per row);
        scattered transfers count one row miss per line.
        """
        self.traffic.add(data_class, nbytes, write)
        lines = max(1, nbytes // _LINE_BYTES)
        if sequential:
            misses = max(1, nbytes // _ROW_BYTES)
            self.row_misses += misses
            self.row_hits += lines - misses
        else:
            self.row_misses += lines

    @property
    def row_hit_rate(self) -> float:
        total = self.row_hits + self.row_misses
        return self.row_hits / total if total else 1.0

    @property
    def effective_bytes_per_cycle(self) -> float:
        """Peak bandwidth de-rated by row-buffer behaviour."""
        hit_rate = self.row_hit_rate
        derate = hit_rate + (1.0 - hit_rate) * _ROW_MISS_DERATE
        return self.peak_bytes_per_cycle * derate

    def service_cycles(self) -> float:
        """Cycles to move all accounted traffic at effective bandwidth."""
        return self.traffic.total() / self.effective_bytes_per_cycle

    def reset(self) -> None:
        self.traffic = TrafficCounter()
        self.row_hits = 0
        self.row_misses = 0
        self._open_rows = [-1] * self.config.controllers
