"""Runtime layer: workloads and the traffic-profile primitives."""

from repro.runtime.traffic import (
    CHUNK,
    IterationProfile,
    ModelConfig,
    array_compressed_bytes,
    chunked_ids_values_compressed,
    gather_rows,
    rows_compressed_bytes,
)
from repro.runtime.workload import (
    SAMPLE_PERIOD,
    Iteration,
    Workload,
    sample_iterations,
)

__all__ = [
    "CHUNK",
    "Iteration",
    "IterationProfile",
    "ModelConfig",
    "SAMPLE_PERIOD",
    "Workload",
    "array_compressed_bytes",
    "chunked_ids_values_compressed",
    "gather_rows",
    "rows_compressed_bytes",
    "sample_iterations",
]
