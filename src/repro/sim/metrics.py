"""Result records: per-run traffic breakdowns and cycle counts.

Traffic is broken down by the paper's Fig 15b categories (AdjacencyMatrix,
SourceVertex, DestinationVertex, Updates) so the harness can print the
same stacked bars; cycles come from the bottleneck timing model and feed
the speedup plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable

#: Breakdown categories, in the paper's legend order.
TRAFFIC_CLASSES = ("adjacency", "source_vertex", "destination_vertex",
                   "updates")


@dataclass
class RunMetrics:
    """Outcome of one (app, scheme, dataset, preprocessing) simulation."""

    app: str
    scheme: str
    dataset: str
    preprocessing: str
    cycles: float
    compute_cycles: float
    memory_cycles: float
    traffic: Dict[str, float] = field(default_factory=dict)
    extras: Dict[str, float] = field(default_factory=dict)

    @property
    def total_traffic(self) -> float:
        return sum(self.traffic.get(cls, 0.0) for cls in TRAFFIC_CLASSES)

    def speedup_over(self, baseline: "RunMetrics") -> float:
        if self.cycles <= 0:
            raise ValueError("run has no cycles")
        return baseline.cycles / self.cycles

    def traffic_ratio_over(self, baseline: "RunMetrics") -> float:
        if baseline.total_traffic <= 0:
            raise ValueError("baseline has no traffic")
        return self.total_traffic / baseline.total_traffic

    def normalized_breakdown(self, baseline: "RunMetrics") -> Dict[str,
                                                                   float]:
        """Per-class traffic normalized to the baseline's total."""
        base = baseline.total_traffic
        return {cls: self.traffic.get(cls, 0.0) / base
                for cls in TRAFFIC_CLASSES}

    @property
    def bandwidth_bound(self) -> bool:
        return self.memory_cycles >= self.compute_cycles


def merge_traffic(parts: Iterable[Dict[str, float]]) -> Dict[str, float]:
    """Sum per-class traffic dictionaries."""
    total: Dict[str, float] = {cls: 0.0 for cls in TRAFFIC_CLASSES}
    for part in parts:
        for cls, nbytes in part.items():
            total[cls] = total.get(cls, 0.0) + nbytes
    return total
