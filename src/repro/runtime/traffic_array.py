"""Array-native stream generation: the hot path of the pricing stages.

This module is the single home of the per-strategy access-stream
generators (Push scatter, Update Batching bins, PHI lines, Pull gather,
row gathers and line-granular footprints).  Each emits line-id/byte
arrays directly from the raw CSR arrays in a few numpy passes; the
staged pipeline (:mod:`repro.stages`) calls them.  Their scalar
oracles, which walk vertices and edges in plain Python, live with the
equivalence suites in ``tests/oracles/traffic.py``
(``tests/test_traffic_equivalence.py`` holds the two bit-identical).

Model notes both sides reproduce (they are contracts of the *model*,
not vectorization accidents):

* gathers short-circuit to the whole neighbours array when the source
  set covers every vertex;
* row footprints switch to a contiguous whole-array scan when at least
  half the vertices are active;
* the grouped delta sizer zigzags each group's first element within
  uint64 (a top-bit id wraps), unlike ``DeltaCodec`` proper — virtual
  ids never reach that range, and the stages and the oracles must agree
  wrap-for-wrap.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.memory.address import LINE_BYTES

#: Compression chunk length (paper Sec III-C: 32 elements).
CHUNK = 32


# --------------------------------------------------------------------------
# Array-native stream generators (the hot path)
# --------------------------------------------------------------------------

def gather_row_stream(offsets: np.ndarray, neighbors: np.ndarray,
                      degrees: np.ndarray, sources: np.ndarray,
                      num_vertices: int) -> np.ndarray:
    """The sources' neighbour ids, back to back, from raw CSR arrays."""
    if sources.size >= num_vertices:
        return neighbors
    deg = degrees[sources]
    total = int(deg.sum())
    if total == 0:
        return np.empty(0, dtype=neighbors.dtype)
    # idx[k] = offsets[src] + position-within-row, no Python loop.
    cum = np.concatenate(([0], np.cumsum(deg)[:-1]))
    idx = (np.repeat(offsets[sources] - cum, deg)
           + np.arange(total, dtype=np.int64))
    return neighbors[idx]


def push_scatter_lines(dsts: np.ndarray, dst_value_bytes: int) -> np.ndarray:
    """Destination-line stream of Push's read-modify-write scatter."""
    per_line = max(1, LINE_BYTES // dst_value_bytes)
    return dsts.astype(np.int64) // per_line


def ub_bin_stream(dsts: np.ndarray, update_values: np.ndarray,
                  vertices_per_bin: int
                  ) -> Tuple[np.ndarray, np.ndarray, int]:
    """Update Batching's binned update stream.

    Returns ``(sorted_ids, sorted_vals, touched_bins)``: the update ids
    (and their payloads, when present) in bin-stable order — the exact
    stream binning writes to memory — plus the distinct-bin count.
    """
    bins = dsts.astype(np.int64) // vertices_per_bin
    order = np.argsort(bins, kind="stable")
    sorted_ids = dsts[order].astype(np.uint32)
    sorted_vals = update_values[order] \
        if update_values.size == dsts.size \
        else np.empty(0, dtype=np.uint32)
    return sorted_ids, sorted_vals, int(np.unique(bins).size)


def pull_gather_lines(pull_neighbors: np.ndarray,
                      src_value_bytes: int) -> np.ndarray:
    """Source-line stream of Pull's transposed gather."""
    per_line = max(1, LINE_BYTES // src_value_bytes)
    return pull_neighbors.astype(np.int64) // per_line


def row_line_bytes(offsets: np.ndarray, num_vertices: int, num_edges: int,
                   sources: np.ndarray, elem_bytes: int = 4) -> int:
    """Line-granular bytes to fetch the sources' neighbour rows."""
    if sources.size == 0:
        return 0
    if sources.size >= num_vertices * 0.5:
        # Near-contiguous scan of the whole neighbours array.
        return ceil_lines(num_edges * elem_bytes)
    return row_line_bytes_sparse(offsets, sources, elem_bytes)


def row_line_bytes_sparse(offsets: np.ndarray, sources: np.ndarray,
                          elem_bytes: int = 4) -> int:
    """Sparse branch of :func:`row_line_bytes`: per-row line spans,
    summed.  Additive over any split of ``sources`` — unlike the dense
    ≥50%-active branch, which is a whole-array formula — so partitioned
    stream generation stores this per partition and lets the stitcher
    apply the dense switch globally."""
    if sources.size == 0:
        return 0
    starts = offsets[sources] * elem_bytes
    ends = offsets[sources + 1] * elem_bytes
    nonempty = ends > starts
    lines = (ends[nonempty] - 1) // LINE_BYTES \
        - starts[nonempty] // LINE_BYTES + 1
    return int(lines.sum()) * LINE_BYTES


def partition_gather_stream(offsets: np.ndarray, neighbors: np.ndarray,
                            degrees: np.ndarray,
                            sources: np.ndarray) -> np.ndarray:
    """One partition's slice of :func:`gather_row_stream`.

    Identical gather without the all-active shortcut (a partition's
    source slice never covers the whole graph); concatenating the
    partitions' gathers in vertex order reproduces the whole-graph
    stream bit for bit.
    """
    deg = degrees[sources]
    total = int(deg.sum())
    if total == 0:
        return np.empty(0, dtype=neighbors.dtype)
    cum = np.concatenate(([0], np.cumsum(deg)[:-1]))
    idx = (np.repeat(offsets[sources] - cum, deg)
           + np.arange(total, dtype=np.int64))
    return neighbors[idx]


def partition_bounds(num_vertices: int, partitions: int,
                     align: int = LINE_BYTES) -> List[Tuple[int, int]]:
    """Split ``[0, num_vertices)`` into ≤ ``partitions`` aligned ranges.

    Boundaries are multiples of ``align`` (the line size in vertices'
    worst case: 64 covers every element width that divides a line), so
    no cache line of any per-vertex array straddles two partitions —
    the property that makes per-partition distinct-line and row-span
    footprints add up exactly to the whole-graph numbers.
    """
    k = max(1, int(partitions))
    if k == 1 or num_vertices <= align:
        return [(0, num_vertices)]
    width = -(-num_vertices // k)
    width = -(-width // align) * align
    bounds = []
    lo = 0
    while lo < num_vertices:
        hi = min(num_vertices, lo + width)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def scattered_line_bytes(indices: np.ndarray, elem_bytes: int) -> int:
    """Distinct-line bytes for scattered single-element reads."""
    if indices.size == 0:
        return 0
    lines = np.unique(indices.astype(np.int64) * elem_bytes // LINE_BYTES)
    return int(lines.size) * LINE_BYTES


def ceil_lines(nbytes: float) -> int:
    return int(-(-nbytes // LINE_BYTES) * LINE_BYTES)
