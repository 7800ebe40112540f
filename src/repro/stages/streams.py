"""Stage 1 — stream-gen: raw access streams of one workload.

A pure function of the workload alone (which itself is a deterministic
function of (app, dataset, preprocessing, scale)): no LLC geometry, no
codec, no timing constant enters here.  Everything downstream — cache
replays, compression measurement, cost models — prices these frozen
streams, so a timing or codec change never regenerates them.

The golden parity suite (``tests/test_stages_parity.py``) pins the
priced output to a committed snapshot, and the equivalence suite
(``tests/test_traffic_equivalence.py``) holds the assembled profiles
bit-identical to the scalar oracle ``profile_iteration_scalar`` in
``tests/oracles/traffic.py``.

Partitioned generation
----------------------

:func:`generate_streams_partitioned` splits the stage into K
vertex-range partitions, each content-addressed independently, so a
graph delta recomputes only the partitions whose rows or active sources
changed — see ``docs/DYNAMIC_GRAPHS.md``.  Two decisions make the
stitched artifact bit-identical to whole-graph generation by
construction:

* a partition stores only *row-content-derived* data (the gathered
  destination-id slice).  Line footprints depend on absolute row
  phases, which an edge delta in an *earlier* partition shifts even
  when this partition's rows are untouched; they are therefore
  recomputed at stitch time through the very same ``row_line_bytes`` /
  ``scattered_line_bytes`` calls the whole-graph path makes, as are all
  count-based quantities and the global all-active shortcuts;
* a partition's cache key hashes its actual inputs — the rows in
  ``[lo, hi)`` (offsets relative to the range start, so upstream edge
  shifts don't rotate it) plus each iteration's active-source slice —
  making the key self-validating for every app.

Whole-graph generation (:func:`generate_streams`) is the K=1 special
case and remains the parity oracle; ``tests/test_stream_partitions.py``
holds the two digest-identical across apps, datasets, and K.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Callable, List, Optional

import numpy as np

from repro.jobs.fingerprint import stream_partition_fingerprint
from repro.runtime.traffic import gather_rows
from repro.runtime.traffic_array import (
    ceil_lines,
    partition_bounds,
    partition_gather_stream,
    row_line_bytes,
    scattered_line_bytes,
)
from repro.runtime.workload import Workload
from repro.stages.artifacts import (
    IterationStreams,
    PartitionIterationStreams,
    StreamArtifact,
    StreamPartition,
)

#: fetch(key, build) -> StreamPartition: the per-partition cache hook.
PartitionFetch = Callable[[str, Callable[[], StreamPartition]],
                          StreamPartition]


def generate_streams(workload: Workload) -> StreamArtifact:
    """Record every raw stream the strategies will price."""
    return _generate_impl(workload, None)


def generate_streams_partitioned(
        workload: Workload, partitions: int,
        fetch: Optional[PartitionFetch] = None) -> StreamArtifact:
    """K-partition stream generation, bit-identical to
    :func:`generate_streams`.

    ``fetch`` mediates the per-partition content-addressed cache
    (:class:`~repro.stages.pipeline.StagePricer` wires it to the result
    cache and the ``stream.partition.hit/computed`` counters); ``None``
    always computes.  Falls back to whole-graph generation when the
    range split cannot apply (K=1 with no cache, or an iteration whose
    active sources are not ascending).
    """
    graph = workload.graph
    degrees = graph.out_degrees()
    num_vertices = graph.num_vertices
    bounds = partition_bounds(num_vertices, partitions)

    contexts = []
    sliceable = True
    for it in workload.iterations:
        sources = it.sources
        if sources.size and np.any(np.diff(sources) < 0):
            sliceable = False
            break
        contexts.append((sources, sources.size >= num_vertices))
    if not sliceable or (len(bounds) == 1 and fetch is None):
        return _generate_impl(workload, None)

    parts: List[StreamPartition] = []
    for lo, hi in bounds:
        slices = []
        for sources, all_active in contexts:
            i0, i1 = np.searchsorted(sources, (lo, hi))
            slices.append((sources[i0:i1], all_active))
        digest = _partition_payload_digest(graph, lo, hi, slices)
        key = stream_partition_fingerprint(lo, hi, digest)

        def build(lo=lo, hi=hi, slices=slices) -> StreamPartition:
            return _build_partition(graph, degrees, lo, hi, slices)

        parts.append(fetch(key, build) if fetch is not None else build())

    dsts_override = []
    for index, (sources, all_active) in enumerate(contexts):
        if all_active:
            dsts_override.append(graph.neighbors)
        else:
            dsts_override.append(np.concatenate(
                [part.iterations[index].dsts for part in parts]))
    return _generate_impl(workload, dsts_override)


def _partition_payload_digest(graph, lo: int, hi: int, slices) -> str:
    """Digest of one partition's actual inputs.

    Row offsets are hashed *relative* to the range start: an edge
    delta in an earlier partition shifts this range's absolute
    positions but not its content, and the partition's output (the
    gathered row slice) depends only on content — so untouched
    partitions keep their keys.
    """
    digest = hashlib.blake2b(digest_size=16)
    offsets = graph.offsets
    digest.update(struct.pack("<qqq", lo, hi, graph.num_vertices))
    digest.update(np.ascontiguousarray(
        offsets[lo:hi + 1] - offsets[lo]).tobytes())
    digest.update(np.ascontiguousarray(
        graph.neighbors[offsets[lo]:offsets[hi]]).tobytes())
    for sources, all_active in slices:
        digest.update(struct.pack("<?q", bool(all_active), sources.size))
        digest.update(str(sources.dtype).encode())
        digest.update(np.ascontiguousarray(sources).tobytes())
    return digest.hexdigest()


def _build_partition(graph, degrees, lo: int, hi: int,
                     slices) -> StreamPartition:
    iterations = []
    for sources, all_active in slices:
        num_edges = int(degrees[sources].sum())
        if all_active:
            # The stitcher reuses the whole neighbours array, exactly
            # like the whole-graph generator's all-active shortcut.
            dsts = np.empty(0, dtype=graph.neighbors.dtype)
        else:
            dsts = partition_gather_stream(
                graph.offsets, graph.neighbors, degrees, sources)
        iterations.append(PartitionIterationStreams(
            num_sources=int(sources.size),
            num_edges=num_edges,
            dsts=dsts))
    return StreamPartition(lo=lo, hi=hi, iterations=iterations)


def _generate_impl(workload: Workload,
                   dsts_override: Optional[List[np.ndarray]]
                   ) -> StreamArtifact:
    graph = workload.graph
    degrees = graph.out_degrees()
    num_vertices = graph.num_vertices
    svb = workload.src_value_bytes

    iterations = []
    for index, it in enumerate(workload.iterations):
        sources = it.sources
        all_active = sources.size >= num_vertices
        active_degrees = degrees[sources]
        num_edges = int(active_degrees.sum())

        if all_active:
            offsets_bytes = ceil_lines((num_vertices + 1) * 8)
        else:
            offsets_bytes = scattered_line_bytes(sources, 8)
        neigh_bytes = row_line_bytes(graph.offsets, num_vertices,
                                     graph.num_edges, sources)
        dsts = dsts_override[index] if dsts_override is not None \
            else gather_rows(graph, sources)

        edge_values = workload.extras.get("edge_values")
        edge_value_bytes = ceil_lines(
            num_edges * edge_values.dtype.itemsize) \
            if edge_values is not None else 0

        if svb == 0:
            src_bytes = 0
        elif all_active:
            src_bytes = ceil_lines(num_vertices * svb)
        else:
            src_bytes = scattered_line_bytes(sources, svb)
        # Source values only feed the compress stage on the all-active
        # path (scattered accesses cannot use compressed layouts).
        src_values = it.src_values if (svb and all_active) \
            else np.empty(0, dtype=np.uint8)

        frontier_bytes = ceil_lines(sources.size * 4) * 2 \
            if workload.frontier_based else 0
        update_bytes = ceil_lines(num_edges * workload.update_bytes)

        iterations.append(IterationStreams(
            weight=it.weight,
            num_sources=int(sources.size),
            num_edges=num_edges,
            all_active=all_active,
            sources=sources,
            active_degrees=active_degrees,
            dsts=dsts,
            src_values=src_values,
            update_values=it.update_values,
            offsets_bytes=offsets_bytes,
            neigh_bytes=neigh_bytes,
            edge_value_bytes=edge_value_bytes,
            src_bytes=src_bytes,
            frontier_bytes=frontier_bytes,
            update_bytes=update_bytes,
        ))

    return StreamArtifact(
        num_vertices=num_vertices,
        dst_value_bytes=workload.dst_value_bytes,
        src_value_bytes=svb,
        update_bytes=workload.update_bytes,
        frontier_based=workload.frontier_based,
        neighbors=graph.neighbors,
        dst_values=workload.dst_values,
        edge_values=workload.extras.get("edge_values"),
        iterations=iterations,
    )
