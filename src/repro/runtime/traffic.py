"""Traffic-profile primitives shared by the pricing stages.

Every quantity the execution strategies cost their memory behaviour
with is measured once per iteration by the staged pipeline
(:mod:`repro.stages`: stream-gen → cache-replay → compress) and
assembled into an :class:`IterationProfile`:

* line-granular adjacency footprints (offsets + neighbour rows), plus the
  *measured* compressed size of the same rows under the paper's delta
  byte-code (over virtual paper-scale ids, see
  :mod:`repro.graph.idspace`);
* source-vertex and frontier footprints, raw and compressed;
* the destination-vertex scatter stream of Push, replayed through an
  LLC-sized LRU cache (misses and dirty writebacks);
* Update Batching's bins: raw update bytes and the measured compressed
  size of 32-update chunks (ids delta-coded after the order-insensitive
  sort; payload values under best-of delta/BPC);
* PHI's in-cache coalescing, replayed with an LLC-sized buffer of update
  lines, producing the spilled-update stream and its compressed size.

This module holds what those stages share: :class:`ModelConfig` (the
scheme-level knobs), the :class:`IterationProfile` record the cost
models read, the vectorized compressed-size helpers, and the vectorized
LLC replays.  Each kernel has a scalar oracle in
:mod:`repro.runtime.traffic_array`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.compression import bpc_chunk_encoded_sizes
from repro.compression.delta import _varint_sizes, _zigzag_u64
from repro.config import SystemConfig
from repro.graph.csr import CsrGraph
from repro.graph.idspace import expand_ids
from repro.memory.address import LINE_BYTES
from repro.memory.batch import (
    _collapse_runs,
    lru_hit_mask,
    lru_scatter_misses,
    previous_occurrence,
)
from repro.obs import TRACER
from repro.runtime.traffic_array import CHUNK, gather_row_stream


@dataclass
class ModelConfig:
    """Knobs of the scheme-level model."""

    system: SystemConfig
    #: id-space expansion factor (the dataset scale; see idspace.py).
    id_scale: int = 4096
    #: fraction of the LLC a bin's destination slice may occupy.
    bin_llc_fraction: float = 0.5
    #: apply the order-insensitive sorting optimization to binned updates.
    sort_updates: bool = True

    @property
    def llc_lines(self) -> int:
        return self.system.llc.num_lines

    def vertices_per_bin(self, dst_value_bytes: int) -> int:
        budget = self.system.llc.size_bytes * self.bin_llc_fraction
        return max(1, int(budget // max(1, dst_value_bytes)))


@dataclass
class IterationProfile:
    """Everything the strategies need to know about one iteration."""

    weight: float
    num_sources: int
    num_edges: int
    # Adjacency structure.
    offsets_bytes: int
    neigh_bytes: int
    neigh_bytes_compressed: int
    edge_value_bytes: int
    edge_value_bytes_compressed: int
    # Source vertex data.
    src_bytes: int
    src_bytes_compressed: int
    # Frontier (zero for all-active).
    frontier_bytes: int
    frontier_bytes_compressed: int
    # Push destination scatter (LLC-sized LRU replay).
    push_dest_read_bytes: int
    push_dest_write_bytes: int
    push_dest_misses: int
    # Update Batching.
    num_bins: int
    update_bytes: int
    update_bytes_compressed: int
    update_bytes_compressed_unsorted: int
    ub_dest_bytes: int
    ub_dest_bytes_compressed: int
    # PHI coalescing.
    phi_spilled_updates: int
    phi_update_bytes: int
    phi_update_bytes_compressed: int
    # Pull (destination-stationary) gather; only meaningful when the
    # iteration is all-active (direction-optimizing runtimes use Push
    # for sparse frontiers).
    pull_gather_misses: int = 0
    pull_gather_read_bytes: int = 0
    pull_adj_bytes: int = 0
    pull_adj_bytes_compressed: int = 0
    #: Work-stealing load-imbalance factor (Sec III-D) for this
    #: iteration's active set; scales compute, not traffic.
    load_imbalance: float = 1.0


# --------------------------------------------------------------------------
# Vectorized compressed-size helpers
# --------------------------------------------------------------------------

def _delta_sizes_grouped(values_u64: np.ndarray,
                         group_starts: np.ndarray) -> np.ndarray:
    """Byte-code delta size of each group (rows/chunks) in one pass.

    ``group_starts`` are indices into ``values_u64`` (ascending, first 0).
    Within each group the first element is absolute, the rest are wrapped
    deltas — identical to ``DeltaCodec.encoded_size`` per group.
    """
    if values_u64.size == 0:
        return np.zeros(len(group_starts), dtype=np.int64)
    signed = values_u64.view(np.int64)
    deltas = np.empty_like(signed)
    deltas[0] = 0
    np.subtract(signed[1:], signed[:-1], out=deltas[1:])
    zz = _zigzag_u64(deltas)
    # First element of each group is stored absolutely (zigzag of value).
    first_vals = values_u64[group_starts]
    zz[group_starts] = (first_vals << np.uint64(1))
    sizes = _varint_sizes(zz)
    return np.add.reduceat(sizes, group_starts)


def gather_rows(graph: CsrGraph, sources: np.ndarray) -> np.ndarray:
    """The sources' neighbour ids, back to back, fully vectorized."""
    return gather_row_stream(graph.offsets, graph.neighbors,
                             graph.out_degrees(), sources,
                             graph.num_vertices)


def rows_compressed_bytes(graph: CsrGraph, sources: np.ndarray,
                          id_scale: int) -> int:
    """Measured per-row delta-compressed size of the sources' rows.

    Per-row raw fallback applies (a row never costs more than raw + one
    flag byte), matching real formats like Ligra+ byte codes.
    """
    deg = graph.out_degrees()[sources]
    if not np.any(deg > 0):
        return 0
    return rows_compressed_bytes_from(gather_rows(graph, sources), deg,
                                      id_scale)


def rows_compressed_bytes_from(ids: np.ndarray, degrees: np.ndarray,
                               id_scale: int) -> int:
    """:func:`rows_compressed_bytes` over pre-gathered row streams.

    ``ids`` is the concatenated neighbour stream of the rows and
    ``degrees`` their per-row lengths (zero-degree rows allowed).  The
    staged pricing pipeline calls this form on frozen stream artifacts;
    the graph-accepting wrapper above gathers and delegates, so the two
    paths share one implementation.
    """
    deg = degrees[degrees > 0]
    if deg.size == 0:
        return 0
    with TRACER.span("profile.compress", count=int(deg.sum())):
        expanded = expand_ids(ids, id_scale)
        group_starts = np.concatenate(([0], np.cumsum(deg)[:-1])).astype(
            np.int64)
        sizes = _delta_sizes_grouped(expanded, group_starts)
        raw = deg * 4 + 1
        return int(np.minimum(sizes, raw).sum())


def chunked_ids_values_compressed(ids: np.ndarray, values: np.ndarray,
                                  id_scale: int, sort: bool,
                                  chunk: int = CHUNK) -> int:
    """Measured compressed size of (id, payload) update chunks.

    Each ``chunk`` of updates compresses as: destination ids delta-coded
    (optionally sorted first — the order-insensitive optimization), plus
    the payload values under the best of delta and BPC, permuted along
    with their ids.  This is what the Fig 14 pipeline produces.
    """
    n = ids.size
    if n == 0:
        return 0
    with TRACER.span("profile.compress", count=int(n)):
        return _chunked_ids_values_compressed(ids, values, id_scale,
                                              sort, chunk)


def _chunked_ids_values_compressed(ids: np.ndarray, values: np.ndarray,
                                   id_scale: int, sort: bool,
                                   chunk: int) -> int:
    n = ids.size
    pad = (-n) % chunk
    ids64 = expand_ids(ids, id_scale)
    if pad:
        ids64 = np.concatenate([ids64, np.full(pad, ids64[-1],
                                               dtype=np.uint64)])
    table = ids64.reshape(-1, chunk)
    if values.size:
        vals = np.ascontiguousarray(values)
        vbits = vals.view(np.dtype(f"u{vals.dtype.itemsize}"))
        if pad:
            vbits = np.concatenate([vbits,
                                    np.full(pad, vbits[-1],
                                            dtype=vbits.dtype)])
        vtable = vbits.reshape(-1, chunk)
    else:
        vtable = None
    if sort:
        order = np.argsort(table, axis=1, kind="stable")
        table = np.take_along_axis(table, order, axis=1)
        if vtable is not None:
            vtable = np.take_along_axis(vtable, order, axis=1)
    # ids: delta byte codes per chunk, raw fallback.
    flat = table.reshape(-1)
    group_starts = np.arange(0, flat.size, chunk, dtype=np.int64)
    id_sizes = _delta_sizes_grouped(flat, group_starts)
    id_sizes = np.minimum(id_sizes, chunk * 4 + 1)
    total = int(id_sizes.sum())
    # payload values: best of BPC and delta per whole stream.
    if vtable is not None:
        vflat = vtable.reshape(-1)
        bpc = int(bpc_chunk_encoded_sizes(vflat, chunk).sum())
        delta = int(np.minimum(
            _delta_sizes_grouped(vflat.astype(np.uint64), group_starts),
            chunk * vflat.dtype.itemsize + 1).sum())
        total += min(bpc, delta)
    # Remove the padding's contribution proportionally.
    if pad:
        total = int(total * (n / (n + pad)))
    return total


def array_compressed_bytes(values: Optional[np.ndarray],
                           chunk: int = CHUNK) -> int:
    """Best-of chunked compressed size of a vertex-data array."""
    if values is None or values.size == 0:
        return 0
    vbits = np.ascontiguousarray(values).view(
        np.dtype(f"u{values.dtype.itemsize}"))
    group_starts = np.arange(0, vbits.size, chunk, dtype=np.int64)
    delta = int(np.minimum(
        _delta_sizes_grouped(vbits.astype(np.uint64), group_starts),
        np.diff(np.concatenate([group_starts, [vbits.size]]))
        * vbits.dtype.itemsize + 1).sum())
    bpc = int(bpc_chunk_encoded_sizes(vbits, chunk).sum())
    raw = vbits.size * vbits.dtype.itemsize
    return min(delta, bpc, raw)


# --------------------------------------------------------------------------
# Cache replays
# --------------------------------------------------------------------------

def lru_scatter_replay(lines: np.ndarray, capacity: int
                       ) -> Tuple[int, int]:
    """Vectorized :func:`~repro.runtime.traffic_array.lru_scatter_oracle`:
    same (misses, writebacks).

    Every line of an RMW stream is inserted dirty, so lifetime
    writebacks (evictions plus the final flush) equal the miss count;
    only the exact LRU miss count needs computing, which
    :func:`repro.memory.batch.lru_scatter_misses` does offline.
    """
    misses = lru_scatter_misses(lines, capacity)
    return misses, misses


def phi_coalesce_replay(dsts: np.ndarray, values: np.ndarray,
                        dst_value_bytes: int, capacity_lines: int
                        ) -> Tuple[np.ndarray, np.ndarray, int]:
    """Vectorized :func:`~repro.runtime.traffic_array.phi_coalesce_oracle`:
    identical spill stream.

    Key facts that make the event loop unnecessary:

    * hits/misses of the line stream follow from the LRU stack property
      (:mod:`repro.memory.batch`); each miss opens a *residency
      segment* of its line, and every segment is eventually spilled
      (evicted mid-stream or flushed at the end), so ``spilled_lines``
      is exactly the miss count;
    * LRU always evicts the resident line with the oldest last access,
      so evicted segments spill in increasing last-access order, and
      the final flush walks survivors in the same order — the full
      spill order is ``(evicted-before-survivors, last access)``;
    * within a segment the scalar dict holds each destination once, in
      first-touch order, with its last-written value — a grouped
      ``lexsort`` dedup.
    """
    per_line = max(1, LINE_BYTES // max(4, dst_value_bytes + 4))
    has_values = values.size == dsts.size
    vals_iter = values if has_values else np.zeros(dsts.size,
                                                   dtype=np.uint64)
    vbits = np.ascontiguousarray(vals_iter).view(
        np.dtype(f"u{vals_iter.dtype.itemsize}")).astype(np.uint64)
    lines = dsts.astype(np.int64) // per_line
    n = lines.size
    if n == 0:
        return (np.array([], dtype=np.uint32),
                np.array([], dtype=np.uint64), 0)

    rep, collapsed_index = _collapse_runs(lines)
    c_lines = lines[rep]
    prev, _corder = previous_occurrence(c_lines)
    c_hits = lru_hit_mask(c_lines, capacity_lines, prev=prev)
    hits_full = np.ones(n, dtype=bool)
    hits_full[rep] = c_hits

    # Segments, in (line, position) grouped order.
    order = np.argsort(lines, kind="stable")
    miss_sorted = ~hits_full[order]
    seg_of_sorted = np.cumsum(miss_sorted) - 1
    seg_starts = np.flatnonzero(miss_sorted)
    num_segments = seg_starts.size
    seg_end = np.concatenate([seg_starts[1:], [n]]) - 1
    sorted_lines = lines[order]
    group_last = np.empty(n, dtype=bool)
    group_last[-1] = True
    np.not_equal(sorted_lines[1:], sorted_lines[:-1],
                 out=group_last[:-1])
    seg_is_final = group_last[seg_end]

    # Survival of each line's final segment (collapsed positions).
    t_last_full = order[seg_end]
    t_last = collapsed_index[t_last_full]
    survive = np.zeros(num_segments, dtype=bool)
    prev_sorted_vals = np.sort(prev)
    d_end = (np.searchsorted(prev_sorted_vals, t_last[seg_is_final],
                             side="right")
             - (t_last[seg_is_final] + 1))
    survive[seg_is_final] = d_end <= capacity_lines - 1

    # Spill rank: evicted segments by last access, then survivors.
    spill_order = np.lexsort((t_last, survive))
    seg_rank = np.empty(num_segments, dtype=np.int64)
    seg_rank[spill_order] = np.arange(num_segments)

    # Dedup (segment, dst): first-touch order, last-written value.
    dst_sorted = dsts[order].astype(np.int64)
    order2 = np.lexsort((dst_sorted, seg_of_sorted))
    seg2 = seg_of_sorted[order2]
    dst2 = dst_sorted[order2]
    new_pair = np.empty(n, dtype=bool)
    new_pair[0] = True
    new_pair[1:] = (seg2[1:] != seg2[:-1]) | (dst2[1:] != dst2[:-1])
    pair_first = np.flatnonzero(new_pair)
    pair_last = np.concatenate([pair_first[1:], [n]]) - 1
    pair_first_pos = order[order2[pair_first]]
    out_order = np.lexsort((pair_first_pos,
                            seg_rank[seg2[pair_first]]))
    spilled_ids = dst2[pair_first][out_order].astype(np.uint32)
    spilled_vals = vbits[order[order2[pair_last]]][out_order]
    return spilled_ids, spilled_vals, int(num_segments)
