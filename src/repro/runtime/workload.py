"""Workloads: what an application actually does, iteration by iteration.

The scheme-level simulator replays *real* executions: each application's
reference implementation runs to completion and records, per iteration,
which sources were active and which values flowed (source data, update
payloads).  Execution strategies then re-cost the same work under their
own memory behaviour.  This keeps every modelled quantity — active
fractions, value compressibility, convergence length — grounded in the
actual algorithm on the actual input rather than in assumptions.

Like the paper (Sec IV), long-running algorithms are iteration-sampled:
every ``sample_period``-th iteration is simulated in detail and weighted
by the iterations it stands for, "since the characteristics of graph
algorithms change slowly over iterations".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.graph.csr import CsrGraph

#: Paper's sampling period: "simulating every 5th iteration".
SAMPLE_PERIOD = 5


@dataclass
class Iteration:
    """One (possibly sampled) iteration of an application."""

    #: Active source vertices, ascending (all vertices when all-active).
    sources: np.ndarray
    #: Per-active-source value read as source data (dtype = real dtype).
    src_values: np.ndarray
    #: Per-edge update payload value, in edge-processing order.
    update_values: np.ndarray
    #: How many real iterations this sample stands for.
    weight: float = 1.0
    #: Index of the real iteration this sample was taken from.
    index: int = 0

    @property
    def num_sources(self) -> int:
        return int(self.sources.size)


@dataclass
class Workload:
    """An application's recorded execution over one input."""

    app: str
    graph: CsrGraph
    iterations: List[Iteration]
    #: Bytes per destination-vertex datum (the scatter-update target).
    dst_value_bytes: int = 8
    #: Bytes per source-vertex datum.
    src_value_bytes: int = 8
    #: Bytes per binned update tuple (destination id + payload).
    update_bytes: int = 8
    #: Non-all-active algorithms maintain a frontier (Sec II-C).
    frontier_based: bool = False
    #: Final destination-value array (for vertex-data compression).
    dst_values: Optional[np.ndarray] = None
    extras: dict = field(default_factory=dict)


def sample_iterations(iterations: List[Iteration],
                      period: int = SAMPLE_PERIOD) -> List[Iteration]:
    """Keep every ``period``-th iteration, reweighted to cover the rest.

    The first iteration is always kept (it often differs most).  Each
    kept iteration absorbs the weight of the skipped ones that follow it.
    """
    if period <= 1 or len(iterations) <= 2:
        return iterations
    sampled: List[Iteration] = []
    for start in range(0, len(iterations), period):
        block = iterations[start:start + period]
        keep = block[0]
        keep.weight = float(sum(it.weight for it in block))
        sampled.append(keep)
    return sampled
