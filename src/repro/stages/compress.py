"""Stage 3 — compress: measured compressed sizes of the frozen streams.

Runs the paper's codecs (per-row delta byte codes, 32-element chunked
id/payload compression, best-of delta/BPC arrays) over the stage-1
streams and stage-2 replay outputs, plus the CMH baseline's BDI/LCP
ratio sweep of the workload's actual arrays.

The config slice is {id_scale, sort_updates}: a codec *code* change
rotates this stage's salt, an LLC change arrives through the replay
artifact's digest, and timing constants never reach here.
"""

from __future__ import annotations

import numpy as np

from repro.graph.idspace import expand_ids
from repro.memory.address import LINE_BYTES
from repro.obs import TRACER
from repro.runtime.traffic import (
    array_compressed_bytes,
    chunked_ids_values_compressed,
    rows_compressed_bytes_from,
)
from repro.runtime.traffic_array import ceil_lines
from repro.schemes.pricing import _bdi_ratio, _lcp_fetch_ratio
from repro.stages.artifacts import (
    CompressArtifact,
    IterationCompress,
    ReplayArtifact,
    StreamArtifact,
)


def compress_streams(stream: StreamArtifact, replay: ReplayArtifact,
                     id_scale: int,
                     sort_updates: bool) -> CompressArtifact:
    """Measure every compressed footprint the cost models consume."""
    dvb = stream.dst_value_bytes
    num_vertices = stream.num_vertices

    edge_comp = ceil_lines(array_compressed_bytes(stream.edge_values)) \
        if stream.edge_values is not None else 0
    dst_comp = array_compressed_bytes(stream.dst_values)
    dst_total_raw = max(1, num_vertices * dvb)

    iterations = []
    for it, rp in zip(stream.iterations, replay.iterations):
        neigh_comp = rows_compressed_bytes_from(
            it.dsts, it.active_degrees, id_scale)
        neigh_bytes_compressed = min(ceil_lines(neigh_comp),
                                     it.neigh_bytes)

        if stream.src_value_bytes == 0:
            src_bytes_compressed = 0
        elif it.all_active:
            src_bytes_compressed = min(
                ceil_lines(array_compressed_bytes(it.src_values)),
                it.src_bytes)
        else:
            # Scattered accesses cannot use compressed layouts.
            src_bytes_compressed = it.src_bytes

        if stream.frontier_based:
            frontier_comp = chunked_ids_values_compressed(
                it.sources.astype(np.uint32),
                np.empty(0, dtype=np.uint32), id_scale,
                sort=sort_updates)
            frontier_bytes_compressed = min(
                2 * ceil_lines(frontier_comp), it.frontier_bytes)
        else:
            frontier_bytes_compressed = 0

        update_unsorted = ceil_lines(chunked_ids_values_compressed(
            rp.sorted_ids, rp.sorted_vals, id_scale, sort=False))
        if sort_updates:
            update_compressed = min(
                ceil_lines(chunked_ids_values_compressed(
                    rp.sorted_ids, rp.sorted_vals, id_scale,
                    sort=True)),
                update_unsorted)
        else:
            update_compressed = update_unsorted

        ub_dest_bytes_compressed = int(
            rp.ub_dest_bytes * min(1.0, dst_comp / dst_total_raw))

        upd_vals = it.update_values
        if upd_vals.size == it.dsts.size \
                and upd_vals.dtype.itemsize <= 8 \
                and rp.phi_spilled_vals.size:
            spill_payload = rp.phi_spilled_vals.astype(
                np.dtype(f"u{upd_vals.dtype.itemsize}")
                if upd_vals.dtype.itemsize in (4, 8) else np.uint64)
        else:
            spill_payload = np.empty(0, dtype=np.uint32)
        phi_comp = chunked_ids_values_compressed(
            rp.phi_spilled_ids, spill_payload, id_scale,
            sort=sort_updates)
        phi_update_bytes_compressed = min(2 * ceil_lines(phi_comp),
                                          rp.phi_update_bytes)

        iterations.append(IterationCompress(
            neigh_bytes_compressed=neigh_bytes_compressed,
            src_bytes_compressed=src_bytes_compressed,
            frontier_bytes_compressed=frontier_bytes_compressed,
            update_bytes_compressed=update_compressed,
            update_bytes_compressed_unsorted=update_unsorted,
            ub_dest_bytes_compressed=ub_dest_bytes_compressed,
            phi_update_bytes_compressed=phi_update_bytes_compressed,
        ))

    return CompressArtifact(
        edge_value_bytes_compressed=edge_comp,
        cmh_ratios=_measure_cmh_ratios(stream, id_scale),
        iterations=iterations,
    )


def _measure_cmh_ratios(stream: StreamArtifact, id_scale: int) -> dict:
    """BDI/LCP ratios of the actual arrays: the CMH baseline's inputs."""
    adj_bytes = expand_ids(stream.neighbors, id_scale).astype(
        np.uint32).tobytes()
    if stream.dst_values is not None and stream.dst_values.size:
        dst_bytes = np.ascontiguousarray(stream.dst_values).tobytes()
    else:
        dst_bytes = b""
    with TRACER.span("pricing.cmh_ratios",
                     count=(len(adj_bytes) + len(dst_bytes))
                     // LINE_BYTES):
        return {
            "adj_lcp": _lcp_fetch_ratio(adj_bytes),
            "dst_lcp": _lcp_fetch_ratio(dst_bytes),
            "dst_bdi": _bdi_ratio(dst_bytes),
        }
