"""Picklable artifacts flowing between the pricing pipeline's stages.

Each artifact is the complete output of one pure stage over one
(app, dataset, preprocessing, scale) profile identity:

``StreamArtifact``    stream-gen: the raw access streams an execution
                      produces — active sources, gathered destination
                      ids, value payloads, line-granular raw footprints.
                      Depends only on the workload identity, never on
                      the system configuration.
``ReplayArtifact``    cache-replay: everything that depends on LLC
                      geometry — the Push scatter replay, PHI's spill
                      stream, UB's binning order.
``CompressArtifact``  compress: measured compressed sizes of the frozen
                      streams (SpZip delta/BPC chunk codecs) plus the
                      CMH baseline's BDI/LCP ratios.

The artifacts hold plain numpy arrays and Python scalars only — no
graphs, workloads, or config objects — so they pickle compactly,
deterministically (the content digests that chain stage fingerprints
hash their pickles), and safely across processes.  Identity labels
(app/dataset names) deliberately stay *out* of the artifacts: two
identities that generate byte-identical streams share every downstream
artifact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np


@dataclass
class IterationStreams:
    """One iteration's raw access streams and footprints."""

    weight: float
    num_sources: int
    num_edges: int
    all_active: bool
    #: Active source vertices (ascending).
    sources: np.ndarray
    #: Out-degree of each active source (drives load imbalance and
    #: per-row compression grouping).
    active_degrees: np.ndarray
    #: Gathered destination ids: the sources' neighbour rows, back to
    #: back — both the scatter stream and the adjacency id stream.
    dsts: np.ndarray
    #: Source values read this iteration (empty unless the compressed
    #: source layout applies: all-active with source data).
    src_values: np.ndarray
    #: Per-edge update payloads, in edge-processing order.
    update_values: np.ndarray
    # Line-granular raw footprints (config-independent).
    offsets_bytes: int
    neigh_bytes: int
    edge_value_bytes: int
    src_bytes: int
    frontier_bytes: int
    update_bytes: int


@dataclass
class PartitionIterationStreams:
    """One iteration's slice of one vertex-range stream partition.

    Only *row-content-derived* data lives here: the gathered
    destination ids of the partition's active sources.  Everything else
    — source arrays, value payloads, line footprints, the all-active
    shortcuts — is recomputed at stitch time through the same code path
    as whole-graph generation, because those quantities depend on
    global facts (absolute row phases, total counts) that an edge delta
    *outside* this partition can shift.  Keeping partitions
    phase-independent is what lets a small delta reuse every untouched
    partition (see ``stages/streams.py``).
    """

    num_sources: int
    num_edges: int
    #: Gathered neighbour rows of the partition's sources; empty when
    #: the iteration is globally all-active (the stitcher then reuses
    #: the whole neighbours array, like the whole-graph generator).
    dsts: np.ndarray


@dataclass
class StreamPartition:
    """Stage-1 partition artifact: one vertex range's stream slices,
    content-addressed independently of every other partition."""

    lo: int
    hi: int
    iterations: List[PartitionIterationStreams]


@dataclass
class StreamArtifact:
    """Stage 1 output: per-workload streams (config-independent)."""

    num_vertices: int
    dst_value_bytes: int
    src_value_bytes: int
    update_bytes: int
    frontier_based: bool
    #: Full forward neighbour array (the CMH adjacency byte stream).
    neighbors: np.ndarray
    #: Final destination-value array (vertex-data compression input).
    dst_values: Optional[np.ndarray]
    #: Per-edge value array, when the app has one (e.g. SpMV).
    edge_values: Optional[np.ndarray]
    iterations: List[IterationStreams]


@dataclass
class IterationReplay:
    """One iteration's LLC-capacity-dependent replay results."""

    # Push destination scatter (LLC-sized LRU replay).
    push_dest_misses: int
    push_dest_read_bytes: int
    push_dest_write_bytes: int
    # Update Batching: bin-sorted update stream, frozen for compress.
    num_bins: int
    touched_bins: int
    sorted_ids: np.ndarray
    sorted_vals: np.ndarray
    ub_dest_bytes: int
    # PHI coalescing: the spilled-update stream.
    phi_spilled_ids: np.ndarray
    phi_spilled_vals: np.ndarray
    phi_update_bytes: int


@dataclass
class ReplayArtifact:
    """Stage 2 output: replays under one resolved LLC geometry."""

    #: Resolved vertices-per-bin (depends on the LLC budget).
    vertices_per_bin: int
    iterations: List[IterationReplay]


@dataclass
class IterationCompress:
    """One iteration's measured compressed footprints."""

    neigh_bytes_compressed: int
    src_bytes_compressed: int
    frontier_bytes_compressed: int
    update_bytes_compressed: int
    update_bytes_compressed_unsorted: int
    ub_dest_bytes_compressed: int
    phi_update_bytes_compressed: int


@dataclass
class CompressArtifact:
    """Stage 3 output: compression measurements of the frozen streams."""

    #: Whole-array compressed size of the edge-value array (identical
    #: for every iteration, measured once).
    edge_value_bytes_compressed: int
    #: Measured BDI/LCP ratios of the workload's actual arrays — the
    #: CMH baseline's pricing inputs (adj_lcp / dst_lcp / dst_bdi).
    cmh_ratios: Dict[str, float]
    iterations: List[IterationCompress]
