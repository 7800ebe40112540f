"""Simulation layer: metrics, timing, and the experiment runner."""

from repro.sim.metrics import (
    TRAFFIC_CLASSES,
    RunMetrics,
    gmean_speedups,
    merge_traffic,
)
from repro.sim.runner import Runner
from repro.sim.timing import (
    MISS_LATENCY,
    RANDOM_BW_DERATE,
    PhaseWork,
    SchemeCosts,
    effective_bytes_per_cycle,
    phase_cycles,
)

__all__ = [
    "MISS_LATENCY",
    "PhaseWork",
    "RANDOM_BW_DERATE",
    "RunMetrics",
    "Runner",
    "SchemeCosts",
    "TRAFFIC_CLASSES",
    "effective_bytes_per_cycle",
    "gmean_speedups",
    "merge_traffic",
    "phase_cycles",
]
