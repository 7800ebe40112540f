"""Main-memory traffic accounting (Table II's DDR3-1600 controllers).

:class:`TrafficCounter` accounts every off-chip byte by data class and
direction, for the Fig 15b-style traffic breakdowns.  Nothing models a
service time: the functional engines charge the constant
``MemoryConfig.latency_cycles`` per miss, and the pricer derates
scattered bandwidth with its own
:data:`~repro.sim.timing.RANDOM_BW_DERATE`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.memory.address import DATA_CLASSES


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
