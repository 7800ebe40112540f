"""Simulation layer: metrics, timing, and the identity → workload
helpers (:mod:`repro.sim.runner`).  Cells are priced by
:class:`~repro.jobs.JobRunner`."""

from repro.sim.metrics import (
    TRAFFIC_CLASSES,
    RunMetrics,
    merge_traffic,
)
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
    "SchemeCosts",
    "TRAFFIC_CLASSES",
    "effective_bytes_per_cycle",
    "merge_traffic",
    "phase_cycles",
]
