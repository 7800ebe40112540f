"""Scalar oracles of the traffic model: per-vertex/per-edge Python walks.

Each function here walks vertices and edges in plain Python, exactly
like a first implementation would, and mirrors one array-native form
in :mod:`repro.runtime.traffic_array`, :mod:`repro.runtime.traffic` or
:mod:`repro.graph.idspace`.  The equivalence suites
(``tests/test_traffic_equivalence.py``,
``tests/test_batch_equivalence.py``) hold the two sides bit-identical.
The scalar LRU scatter and PHI coalescing replays live here for the
same reason.  :func:`profile_iteration_scalar` strings every oracle into
a full per-iteration profile whose fields must equal the stage
composition's (:func:`repro.sim.runner.profile_workload`) exactly.
"""

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.compression.bpc import BpcCodec
from repro.compression.delta import _wrapped_delta, _zigzag_int
from repro.graph.idspace import (
    DEFAULT_BLOCK,
    DEFAULT_LOCAL_STRIDE,
    _HASH_MULT,
)
from repro.memory.address import LINE_BYTES
from repro.runtime.traffic_array import CHUNK, ceil_lines

_U64_MASK = (1 << 64) - 1


def gather_row_stream_scalar(offsets: np.ndarray, neighbors: np.ndarray,
                             degrees: np.ndarray, sources: np.ndarray,
                             num_vertices: int) -> np.ndarray:
    """Row-by-row Python gather (incl. the all-active shortcut)."""
    if sources.size >= num_vertices:
        return neighbors
    out: List[int] = []
    for src in sources.tolist():
        start = int(offsets[src])
        out.extend(neighbors[start:start + int(degrees[src])].tolist())
    return np.array(out, dtype=neighbors.dtype)


def push_scatter_lines_scalar(dsts: np.ndarray,
                              dst_value_bytes: int) -> np.ndarray:
    per_line = max(1, LINE_BYTES // dst_value_bytes)
    return np.array([dst // per_line for dst in dsts.tolist()],
                    dtype=np.int64)


def ub_bin_stream_scalar(dsts: np.ndarray, update_values: np.ndarray,
                         vertices_per_bin: int
                         ) -> Tuple[np.ndarray, np.ndarray, int]:
    ids = dsts.tolist()
    bins = [dst // vertices_per_bin for dst in ids]
    order = sorted(range(len(ids)), key=lambda i: bins[i])  # stable
    sorted_ids = np.array([ids[i] for i in order], dtype=np.uint32)
    if update_values.size == dsts.size:
        vals = update_values.tolist()
        sorted_vals = np.array([vals[i] for i in order],
                               dtype=update_values.dtype)
    else:
        sorted_vals = np.empty(0, dtype=np.uint32)
    return sorted_ids, sorted_vals, len(set(bins))


def pull_gather_lines_scalar(pull_neighbors: np.ndarray,
                             src_value_bytes: int) -> np.ndarray:
    per_line = max(1, LINE_BYTES // src_value_bytes)
    return np.array([src // per_line for src in pull_neighbors.tolist()],
                    dtype=np.int64)


def row_line_bytes_scalar(offsets: np.ndarray, num_vertices: int,
                          num_edges: int, sources: np.ndarray,
                          elem_bytes: int = 4) -> int:
    if sources.size == 0:
        return 0
    if sources.size >= num_vertices * 0.5:
        return ceil_lines(num_edges * elem_bytes)
    total_lines = 0
    for src in sources.tolist():
        start = int(offsets[src]) * elem_bytes
        end = int(offsets[src + 1]) * elem_bytes
        if end > start:
            total_lines += (end - 1) // LINE_BYTES \
                - start // LINE_BYTES + 1
    return total_lines * LINE_BYTES


def scattered_line_bytes_scalar(indices: np.ndarray,
                                elem_bytes: int) -> int:
    lines = {int(i) * elem_bytes // LINE_BYTES for i in indices.tolist()}
    return len(lines) * LINE_BYTES


def lru_scatter_oracle(lines: np.ndarray, capacity: int) -> Tuple[int, int]:
    """Replay a read-modify-write scatter stream through an LRU cache.

    Returns (misses, dirty writebacks incl. final flush).  This is the
    scalar reference model; the profiling hot path uses the bit-identical
    vectorized :func:`repro.runtime.traffic.lru_scatter_replay`
    (equivalence is enforced by ``tests/test_batch_equivalence.py``).
    """
    cache: "OrderedDict[int, bool]" = OrderedDict()
    misses = 0
    writebacks = 0
    for line in lines.tolist():
        if line in cache:
            cache.move_to_end(line)
        else:
            misses += 1
            if len(cache) >= capacity:
                cache.popitem(last=False)
                writebacks += 1  # RMW data is always dirty
            cache[line] = True
    writebacks += len(cache)  # final flush of dirty lines
    return misses, writebacks


def phi_coalesce_oracle(dsts: np.ndarray, values: np.ndarray,
                        dst_value_bytes: int, capacity_lines: int
                        ) -> Tuple[np.ndarray, np.ndarray, int]:
    """Replay PHI's in-cache update coalescing, one update at a time.

    Updates to the same destination line coalesce while the line stays
    resident; evictions (and the final flush) spill the line's distinct
    updates.  Returns (spilled dst ids, spilled values, spilled lines).
    Scalar reference for
    :func:`repro.runtime.traffic.phi_coalesce_replay`.
    """
    per_line = max(1, LINE_BYTES // max(4, dst_value_bytes + 4))
    cache: "OrderedDict[int, Dict[int, int]]" = OrderedDict()
    spilled_ids: List[int] = []
    spilled_vals: List[int] = []
    spilled_lines = 0
    has_values = values.size == dsts.size
    vals_iter = values if has_values else np.zeros(dsts.size,
                                                   dtype=np.uint64)
    vbits = np.ascontiguousarray(vals_iter).view(
        np.dtype(f"u{vals_iter.dtype.itemsize}")).astype(np.uint64)
    for dst, val in zip(dsts.tolist(), vbits.tolist()):
        line = dst // per_line
        bucket = cache.get(line)
        if bucket is None:
            if len(cache) >= capacity_lines:
                _evicted, contents = cache.popitem(last=False)
                spilled_lines += 1
                spilled_ids.extend(contents.keys())
                spilled_vals.extend(contents.values())
            bucket = {}
            cache[line] = bucket
        else:
            cache.move_to_end(line)
        bucket[dst] = val  # coalesce: commutative update aggregates
    for _line, contents in cache.items():
        spilled_lines += 1
        spilled_ids.extend(contents.keys())
        spilled_vals.extend(contents.values())
    return (np.array(spilled_ids, dtype=np.uint32),
            np.array(spilled_vals, dtype=np.uint64),
            spilled_lines)


# --------------------------------------------------------------------------
# Scalar codec size models (the model's semantics, element by element)
# --------------------------------------------------------------------------

def expand_id_scalar(vid: int, scale: int, block: int = DEFAULT_BLOCK,
                     local_stride: int = DEFAULT_LOCAL_STRIDE) -> int:
    """One-id mirror of :func:`repro.graph.idspace.expand_ids`."""
    if scale <= 1:
        return vid
    stride = min(local_stride, scale)
    blk, off = divmod(vid, block)
    noise = ((vid * int(_HASH_MULT)) & _U64_MASK) % stride
    return blk * block * scale + off * stride + noise


def _varint_bucket(value: int) -> int:
    """Scalar mirror of ``repro.compression.delta._varint_sizes``."""
    if value < 1 << 6:
        return 1
    if value < 1 << 14:
        return 2
    if value < 1 << 30:
        return 4
    return 9


def delta_group_size_scalar(group: List[int]) -> int:
    """Model delta size of one group: wrapped zigzags, walked in Python.

    Mirrors ``traffic._delta_sizes_grouped`` for a single group —
    including the uint64 wrap of the first element's zigzag.
    """
    first = group[0]
    total = _varint_bucket((first << 1) & _U64_MASK)
    prev = first
    for current in group[1:]:
        total += _varint_bucket(_zigzag_int(_wrapped_delta(current, prev)))
        prev = current
    return total


def rows_compressed_bytes_scalar(ids: np.ndarray, degrees: np.ndarray,
                                 id_scale: int) -> int:
    """Per-row scalar mirror of ``traffic.rows_compressed_bytes_from``."""
    total = 0
    pos = 0
    for deg in degrees.tolist():
        if deg <= 0:
            continue
        row = [expand_id_scalar(int(v), id_scale)
               for v in ids[pos:pos + deg].tolist()]
        pos += deg
        total += min(delta_group_size_scalar(row), deg * 4 + 1)
    return total


def chunked_ids_values_compressed_scalar(ids: np.ndarray,
                                         values: np.ndarray,
                                         id_scale: int, sort: bool,
                                         chunk: int = CHUNK) -> int:
    """Chunk-by-chunk mirror of
    ``traffic.chunked_ids_values_compressed``."""
    n = ids.size
    if n == 0:
        return 0
    pad = (-n) % chunk
    ids64 = [expand_id_scalar(int(v), id_scale) for v in ids.tolist()]
    ids64 += [ids64[-1]] * pad
    has_vals = values.size > 0
    if has_vals:
        vals = np.ascontiguousarray(values)
        vbits = vals.view(np.dtype(f"u{vals.dtype.itemsize}"))
        vlist = [int(v) for v in vbits.tolist()]
        vlist += [vlist[-1]] * pad
        vdtype = vbits.dtype
        vwidth = 8 * vbits.dtype.itemsize
        vitem = vbits.dtype.itemsize
        codec = BpcCodec()
    total = 0
    bpc_total = 0
    delta_total = 0
    for start in range(0, len(ids64), chunk):
        id_chunk = ids64[start:start + chunk]
        val_chunk = vlist[start:start + chunk] if has_vals else []
        if sort:
            order = sorted(range(len(id_chunk)),
                           key=lambda i: id_chunk[i])  # stable
            id_chunk = [id_chunk[i] for i in order]
            if has_vals:
                val_chunk = [val_chunk[i] for i in order]
        total += min(delta_group_size_scalar(id_chunk), chunk * 4 + 1)
        if has_vals:
            arr = np.array(val_chunk, dtype=np.uint64).astype(vdtype)
            bpc_total += len(codec._encode_chunk(arr, vwidth))
            delta_total += min(delta_group_size_scalar(val_chunk),
                               chunk * vitem + 1)
    if has_vals:
        total += min(bpc_total, delta_total)
    if pad:
        total = int(total * (n / (n + pad)))
    return total


def array_compressed_bytes_scalar(values: Optional[np.ndarray],
                                  chunk: int = CHUNK) -> int:
    """Chunk-by-chunk mirror of ``traffic.array_compressed_bytes``."""
    if values is None or values.size == 0:
        return 0
    vbits = np.ascontiguousarray(values).view(
        np.dtype(f"u{values.dtype.itemsize}"))
    item = vbits.dtype.itemsize
    width = 8 * item
    codec = BpcCodec()
    delta_total = 0
    bpc_total = 0
    elems = [int(v) for v in vbits.tolist()]
    for start in range(0, len(elems), chunk):
        group = elems[start:start + chunk]
        delta_total += min(delta_group_size_scalar(group),
                           len(group) * item + 1)
        bpc_total += len(codec._encode_chunk(vbits[start:start + chunk],
                                             width))
    raw = vbits.size * item
    return min(delta_total, bpc_total, raw)


# --------------------------------------------------------------------------
# The full scalar-oracle profiler
# --------------------------------------------------------------------------

def profile_iteration_scalar(workload, iteration, cfg):
    """Per-iteration profile built entirely from the scalar oracles.

    Field-for-field equal to the stage composition's profile of the
    same iteration (:func:`repro.sim.runner.profile_workload`); the
    equivalence suite (``tests/test_traffic_equivalence.py``) holds the
    two bit-identical across hostile configs.  Never used on the hot
    path — this exists to be slow and obviously correct.
    """
    from repro.runtime.scheduling import iteration_imbalance
    from repro.runtime.traffic import IterationProfile
    graph = workload.graph
    offsets = graph.offsets
    degrees = graph.out_degrees()
    num_vertices = graph.num_vertices
    sources = iteration.sources
    num_edges = sum(int(degrees[s]) for s in sources.tolist())
    all_active = sources.size >= num_vertices

    # --- adjacency -------------------------------------------------------
    if all_active:
        offsets_bytes = ceil_lines((num_vertices + 1) * 8)
    else:
        offsets_bytes = scattered_line_bytes_scalar(sources, 8)
    neigh_bytes = row_line_bytes_scalar(offsets, num_vertices,
                                        graph.num_edges, sources)
    dsts = gather_row_stream_scalar(offsets, graph.neighbors, degrees,
                                    sources, num_vertices)
    neigh_comp = rows_compressed_bytes_scalar(dsts, degrees[sources],
                                              cfg.id_scale)
    neigh_bytes_compressed = min(ceil_lines(neigh_comp), neigh_bytes)

    edge_values = workload.extras.get("edge_values")
    if edge_values is not None:
        edge_value_bytes = ceil_lines(num_edges
                                      * edge_values.dtype.itemsize)
        edge_value_bytes_compressed = ceil_lines(
            array_compressed_bytes_scalar(edge_values))
    else:
        edge_value_bytes = 0
        edge_value_bytes_compressed = 0

    # --- source vertex data ----------------------------------------------
    svb = workload.src_value_bytes
    if svb == 0:
        src_bytes = src_bytes_compressed = 0
    elif all_active:
        src_bytes = ceil_lines(num_vertices * svb)
        src_bytes_compressed = min(
            ceil_lines(array_compressed_bytes_scalar(
                iteration.src_values)),
            src_bytes)
    else:
        src_bytes = scattered_line_bytes_scalar(sources, svb)
        # Scattered accesses cannot use compressed layouts (Sec II-C).
        src_bytes_compressed = src_bytes

    # --- frontier --------------------------------------------------------
    if workload.frontier_based:
        frontier_raw = ceil_lines(sources.size * 4) * 2  # write + read
        frontier_comp = chunked_ids_values_compressed_scalar(
            sources.astype(np.uint32), np.empty(0, dtype=np.uint32),
            cfg.id_scale, sort=cfg.sort_updates)
        frontier_bytes = frontier_raw
        frontier_bytes_compressed = min(2 * ceil_lines(frontier_comp),
                                        frontier_raw)
    else:
        frontier_bytes = frontier_bytes_compressed = 0

    # --- Push destination scatter ----------------------------------------
    dvb = workload.dst_value_bytes
    dst_lines = push_scatter_lines_scalar(dsts, dvb)
    misses, writebacks = lru_scatter_oracle(dst_lines, cfg.llc_lines)

    # --- Update Batching -------------------------------------------------
    vpb = cfg.vertices_per_bin(dvb)
    num_bins = max(1, -(-num_vertices // vpb))
    update_bytes = ceil_lines(num_edges * workload.update_bytes)
    upd_vals = iteration.update_values
    sorted_ids, sorted_vals, touched_bins = ub_bin_stream_scalar(
        dsts, upd_vals, vpb)
    update_bytes_compressed_unsorted = ceil_lines(
        chunked_ids_values_compressed_scalar(
            sorted_ids, sorted_vals, cfg.id_scale, sort=False))
    if cfg.sort_updates:
        update_bytes_compressed = min(
            ceil_lines(chunked_ids_values_compressed_scalar(
                sorted_ids, sorted_vals, cfg.id_scale, sort=True)),
            update_bytes_compressed_unsorted)
    else:
        update_bytes_compressed = update_bytes_compressed_unsorted
    ub_dest_raw = min(ceil_lines(num_vertices * dvb),
                      touched_bins * vpb * dvb)
    ub_dest_bytes = 2 * ub_dest_raw  # read + write per pass
    dst_comp = array_compressed_bytes_scalar(workload.dst_values)
    dst_total_raw = max(1, num_vertices * dvb)
    ub_dest_bytes_compressed = int(ub_dest_bytes
                                   * min(1.0, dst_comp / dst_total_raw))

    # --- PHI -------------------------------------------------------------
    spilled_ids, spilled_vals, _lines = phi_coalesce_oracle(
        dsts.astype(np.int64),
        upd_vals if upd_vals.size == dsts.size else np.empty(0),
        dvb, cfg.llc_lines)
    phi_update_bytes = 2 * ceil_lines(spilled_ids.size
                                      * workload.update_bytes)
    if upd_vals.size == dsts.size and upd_vals.dtype.itemsize <= 8 \
            and spilled_vals.size:
        spill_payload = spilled_vals.astype(
            np.dtype(f"u{upd_vals.dtype.itemsize}") if
            upd_vals.dtype.itemsize in (4, 8) else np.uint64)
    else:
        spill_payload = np.empty(0, dtype=np.uint32)
    phi_comp = chunked_ids_values_compressed_scalar(
        spilled_ids, spill_payload, cfg.id_scale, sort=cfg.sort_updates)
    phi_update_bytes_compressed = min(2 * ceil_lines(phi_comp),
                                      phi_update_bytes)

    # --- Pull (destination-stationary) gather ----------------------------
    pull_gather_misses = 0
    pull_gather_read_bytes = 0
    pull_adj_bytes = 0
    pull_adj_bytes_comp = 0
    if all_active and svb:
        transposed = graph.transpose()
        every = np.arange(transposed.num_vertices)
        gather_lines = pull_gather_lines_scalar(transposed.neighbors, svb)
        pull_gather_misses, _wb = lru_scatter_oracle(gather_lines,
                                                     cfg.llc_lines)
        pull_gather_read_bytes = pull_gather_misses * LINE_BYTES
        pull_adj_bytes = row_line_bytes_scalar(
            transposed.offsets, transposed.num_vertices,
            transposed.num_edges, every)
        pull_adj_bytes_comp = min(
            ceil_lines(rows_compressed_bytes_scalar(
                transposed.neighbors, transposed.out_degrees(),
                cfg.id_scale)),
            pull_adj_bytes)

    return IterationProfile(
        weight=iteration.weight,
        num_sources=int(sources.size),
        num_edges=num_edges,
        offsets_bytes=offsets_bytes,
        neigh_bytes=neigh_bytes,
        neigh_bytes_compressed=neigh_bytes_compressed,
        edge_value_bytes=edge_value_bytes,
        edge_value_bytes_compressed=edge_value_bytes_compressed,
        src_bytes=src_bytes,
        src_bytes_compressed=src_bytes_compressed,
        frontier_bytes=frontier_bytes,
        frontier_bytes_compressed=frontier_bytes_compressed,
        push_dest_read_bytes=misses * LINE_BYTES,
        push_dest_write_bytes=writebacks * LINE_BYTES,
        push_dest_misses=misses,
        num_bins=num_bins,
        update_bytes=update_bytes,
        update_bytes_compressed=update_bytes_compressed,
        update_bytes_compressed_unsorted=update_bytes_compressed_unsorted,
        ub_dest_bytes=ub_dest_bytes,
        ub_dest_bytes_compressed=ub_dest_bytes_compressed,
        phi_spilled_updates=int(spilled_ids.size),
        phi_update_bytes=phi_update_bytes,
        phi_update_bytes_compressed=phi_update_bytes_compressed,
        pull_gather_misses=pull_gather_misses,
        pull_gather_read_bytes=pull_gather_read_bytes,
        pull_adj_bytes=pull_adj_bytes,
        pull_adj_bytes_compressed=pull_adj_bytes_comp,
        load_imbalance=iteration_imbalance(degrees[sources],
                                           num_cores=cfg.system.num_cores),
    )
