"""Content-addressed stage-graph pricing pipeline.

The one path from an (app, scheme, dataset, preprocessing) cell to
:class:`~repro.sim.metrics.RunMetrics`: four pure steps — stream-gen →
cache-replay → compress → timing.  The first three persist their
artifacts in the result cache under fingerprints of (stage code salt,
upstream artifact digests, stage-relevant config slice); timing's
result is stored once, as the cell.  :class:`~repro.jobs.JobRunner`,
the jobs executor and the server all price through it.  See
docs/PIPELINE.md.
"""

from repro.stages.artifacts import (
    CompressArtifact,
    PartitionIterationStreams,
    ReplayArtifact,
    StreamArtifact,
    StreamPartition,
)
from repro.stages.pipeline import (
    ProfileBundle,
    StagePricer,
    reset_stage_counters,
    stage_counters,
)

__all__ = [
    "CompressArtifact",
    "PartitionIterationStreams",
    "ProfileBundle",
    "ReplayArtifact",
    "StagePricer",
    "StreamArtifact",
    "StreamPartition",
    "reset_stage_counters",
    "stage_counters",
]
