"""Prebuilt DCL pipelines from the paper's figures.

Each builder returns a :class:`~repro.dcl.program.Program` wired to named
memory regions (resolved against the engine's address space at load
time).  These are the pipelines the paper draws:

* :func:`csr_traversal` — Fig 2, plain CSR matrix walk;
* :func:`compressed_csr_traversal` — Fig 3, CSR with entropy-compressed
  rows;
* :func:`pagerank_push` — Fig 5 / Fig 11, the three-region PageRank
  pipeline (adjacency + source data + destination prefetch), optionally
  with compressed neighbours;
* :func:`bfs_push` — Fig 6, the frontier-driven non-all-active pipeline;
* :func:`single_stream_compress` — Fig 13, compress one stream;
* :func:`ub_bins_compress` — Fig 14, the two-MQU update-binning pipeline.

:func:`traversal_cycles` runs the Fig 3 pipeline over a graph on a
fetcher (Fig 21's scratchpad sweep).

One modelling note: Fig 11 shows a single core-facing input queue feeding
two range-fetch operators.  Queues in this model are single-consumer (two
poppers would race), so builders declare one input queue per consuming
operator and the core enqueues the range to each — semantically identical
and one enqueue instruction more per traversal.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.compression import Codec, DeltaCodec
from repro.config import SpZipConfig
from repro.dcl.operators import pack_range
from repro.dcl.program import Program
from repro.engine.fetcher import Fetcher
from repro.graph.compressed_csr import CompressedCsr
from repro.graph.csr import CsrGraph
from repro.memory.address import AddressSpace

#: Canonical queue names used by the builders (and the examples/tests).
INPUT_QUEUE = "input"
OFFSETS_INPUT_QUEUE = "input_offsets"
ROWS_QUEUE = "rows"
NEIGH_QUEUE = "neighbors"
CONTRIBS_QUEUE = "contribs"
ACTIVE_QUEUE = "active_ids"
BIN_QUEUE = "bin_input"
COMPRESSED_QUEUE = "compressed"


def csr_traversal(offsets_region: str = "offsets",
                  rows_region: str = "rows",
                  row_elem_bytes: int = 8) -> Program:
    """Fig 2: offsets range-fetch feeding a rows range-fetch.

    The core enqueues a packed row range ``(first, last+1)`` covering the
    offsets entries; the first operator streams those boundaries, and the
    second interprets consecutive boundaries as row extents.
    """
    p = Program()
    p.queue(INPUT_QUEUE, elem_bytes=8)
    p.queue("offsetsQ", elem_bytes=8)
    p.queue(ROWS_QUEUE, elem_bytes=row_elem_bytes)
    p.range_fetch("fetch_offsets", INPUT_QUEUE, ["offsetsQ"],
                  base=offsets_region, elem_bytes=8,
                  emit_range_markers=False)
    p.range_fetch("fetch_rows", "offsetsQ", [ROWS_QUEUE],
                  base=rows_region, elem_bytes=row_elem_bytes,
                  use_end_as_next_start=True)
    return p


def compressed_csr_traversal(offsets_region: str = "offsets",
                             payload_region: str = "payload",
                             codec: Optional[Codec] = None,
                             elem_bytes: int = 4) -> Program:
    """Fig 3: compressed rows flow through a decompression operator."""
    p = Program()
    p.queue(INPUT_QUEUE, elem_bytes=8)
    p.queue("offsetsQ", elem_bytes=8)
    p.queue("crows", elem_bytes=1)
    p.queue(ROWS_QUEUE, elem_bytes=elem_bytes)
    p.range_fetch("fetch_offsets", INPUT_QUEUE, ["offsetsQ"],
                  base=offsets_region, elem_bytes=8,
                  emit_range_markers=False)
    p.range_fetch("fetch_crows", "offsetsQ", ["crows"],
                  base=payload_region, elem_bytes=1,
                  use_end_as_next_start=True)
    p.decompress("dec", "crows", [ROWS_QUEUE],
                 codec=codec or DeltaCodec(), elem_bytes=elem_bytes)
    return p


def traversal_cycles(graph: CsrGraph, config: SpZipConfig, rows: int,
                     mem_latency: int) -> int:
    """Cycles a fetcher takes to walk ``graph``'s first ``rows`` rows.

    Delta-compresses the adjacency, then drives
    :func:`compressed_csr_traversal` over rows ``[0, min(rows, n))``
    against a flat ``mem_latency`` memory port, with the core dequeuing
    four decompressed neighbours per cycle.
    """
    # Resolved at call time so a wrapper installed on the driver module
    # after import (perfbench's layer trace) sees every walk.
    from repro.engine.driver import DriveRequest, drive
    cc = CompressedCsr(graph)
    space = AddressSpace()
    space.alloc_array("offsets", cc.offsets, "adjacency")
    space.alloc_array("payload", np.frombuffer(cc.payload, dtype=np.uint8),
                      "adjacency")
    fetcher = Fetcher.from_program(compressed_csr_traversal(), space,
                                   config, mem_latency=mem_latency)
    walk = min(rows, graph.num_vertices)
    result = drive(fetcher, DriveRequest(
        feeds={INPUT_QUEUE: [pack_range(0, walk + 1)]},
        consume=[ROWS_QUEUE], dequeues_per_cycle=4, max_cycles=10 ** 8))
    return result.cycles


def pagerank_push(offsets_region: str = "offsets",
                  neigh_region: str = "neighbors",
                  contribs_region: str = "contribs",
                  scores_region: str = "scores",
                  compressed: bool = False,
                  codec: Optional[Codec] = None,
                  prefetch_scores: bool = True,
                  contrib_elem_bytes: int = 8) -> Program:
    """Fig 5 (plain) / Fig 11 (compressed neighbours) Push PageRank.

    Blue region: adjacency traversal; green: source contribs; orange:
    destination score prefetch (no output queue — atomics stay on the
    core).  The core enqueues the source range ``(s, e)`` to ``input``
    and the offsets boundary range ``(s, e+1)`` to ``input_offsets``.
    """
    p = Program()
    p.queue(INPUT_QUEUE, elem_bytes=8)
    p.queue(OFFSETS_INPUT_QUEUE, elem_bytes=8)
    p.queue(CONTRIBS_QUEUE, elem_bytes=contrib_elem_bytes)
    p.queue("offsetsQ", elem_bytes=8)
    p.queue(NEIGH_QUEUE, elem_bytes=4)
    p.range_fetch("fetch_contribs", INPUT_QUEUE, [CONTRIBS_QUEUE],
                  base=contribs_region, elem_bytes=contrib_elem_bytes,
                  marker_value=0)
    p.range_fetch("fetch_offsets", OFFSETS_INPUT_QUEUE, ["offsetsQ"],
                  base=offsets_region, elem_bytes=8,
                  emit_range_markers=False)
    targets = [NEIGH_QUEUE]
    if prefetch_scores:
        p.queue("prefetchQ", elem_bytes=4)
        targets.append("prefetchQ")
    if compressed:
        p.queue("cneighs", elem_bytes=1)
        p.range_fetch("fetch_cneighs", "offsetsQ", ["cneighs"],
                      base=neigh_region, elem_bytes=1,
                      use_end_as_next_start=True, marker_value=1)
        p.decompress("dec", "cneighs", targets,
                     codec=codec or DeltaCodec(), elem_bytes=4)
    else:
        p.range_fetch("fetch_neighs", "offsetsQ", targets,
                      base=neigh_region, elem_bytes=4,
                      use_end_as_next_start=True, marker_value=1)
    if prefetch_scores:
        p.indirect("prefetch_scores", "prefetchQ", [],
                   base=scores_region, elem_bytes=8)
    return p


def bfs_push(frontier_region: str = "frontier",
             offsets_region: str = "offsets",
             neigh_region: str = "neighbors",
             dists_region: str = "dists",
             prefetch_dists: bool = True,
             emit_active_ids: bool = True) -> Program:
    """Fig 6: frontier -> active ids -> offsets -> neighbours (+prefetch).

    The grey indirection of Fig 6 reads active vertex ids out of the
    frontier; because ``offsets`` is then accessed non-contiguously, a
    pair-fetching indirection loads each vertex's ``(start, end)`` extent
    in one access, feeding the neighbour range fetch in pair mode.
    """
    p = Program()
    p.queue(INPUT_QUEUE, elem_bytes=8)       # frontier ranges
    p.queue("active_walkQ", elem_bytes=4)    # ids that drive the traversal
    p.queue("offset_pairQ", elem_bytes=8)    # packed (start, end)
    p.queue(NEIGH_QUEUE, elem_bytes=4)
    frontier_targets = ["active_walkQ"]
    if emit_active_ids:
        p.queue(ACTIVE_QUEUE, elem_bytes=4)  # copy for the core
        frontier_targets.append(ACTIVE_QUEUE)
    p.range_fetch("fetch_frontier", INPUT_QUEUE, frontier_targets,
                  base=frontier_region, elem_bytes=4, marker_value=2,
                  emit_range_markers=False)
    p.indirect("fetch_offsets", "active_walkQ", ["offset_pairQ"],
               base=offsets_region, elem_bytes=8, fetch_pair=True)
    targets = [NEIGH_QUEUE]
    if prefetch_dists:
        p.queue("prefetchQ", elem_bytes=4)
        targets.append("prefetchQ")
    p.range_fetch("fetch_neighs", "offset_pairQ", targets,
                  base=neigh_region, elem_bytes=4, marker_value=1)
    if prefetch_dists:
        p.indirect("prefetch_dists", "prefetchQ", [],
                   base=dists_region, elem_bytes=8)
    return p


def single_stream_compress(output_region: str = "compressed_out",
                           capacity_bytes: int = 1 << 20,
                           codec: Optional[Codec] = None,
                           elem_bytes: int = 4, chunk_elems: int = 32,
                           sort_chunks: bool = False) -> Program:
    """Fig 13: compress one stream and write it sequentially.

    The core enqueues elements plus markers at the chunk boundaries it
    wants (row ends, frontier end); each marker-delimited chunk lands as
    one compressed chunk whose length the stream writer records.
    """
    p = Program()
    p.queue(INPUT_QUEUE, elem_bytes=elem_bytes)
    p.queue(COMPRESSED_QUEUE, elem_bytes=1)
    p.compress("comp", INPUT_QUEUE, [COMPRESSED_QUEUE],
               codec=codec or DeltaCodec(), elem_bytes=elem_bytes,
               chunk_elems=chunk_elems, sort_chunks=sort_chunks)
    p.stream_write("writer", COMPRESSED_QUEUE, base=output_region,
                   capacity_bytes=capacity_bytes)
    return p


def ub_bins_compress(num_bins: int,
                     staging_region: str = "mqu_staging",
                     bins_region: str = "compressed_bins",
                     staging_bytes_per_bin: int = 512,
                     bin_bytes: int = 1 << 16,
                     codec: Optional[Codec] = None,
                     chunk_elems: int = 32,
                     sort_chunks: bool = True,
                     value_bytes: int = 8) -> Program:
    """Fig 14: MQU (uncompressed bins) -> CU -> MQU (compressed bins).

    The core enqueues packed ``(bin id, update)`` tuples (see
    :func:`repro.dcl.operators.pack_tuple`).  The staging MQU accumulates
    ``chunk_elems`` updates per bin in (LLC-cached) memory; full chunks
    stream through the compression unit (sorted first when the data is
    order-insensitive); the bin-append MQU lands each compressed chunk in
    its bin's output area.
    """
    p = Program()
    p.queue(BIN_QUEUE, elem_bytes=8)
    p.queue("chunksQ", elem_bytes=8)
    p.queue("compressedQ", elem_bytes=1)
    p.mem_queue("stage", BIN_QUEUE, ["chunksQ"], num_queues=num_bins,
                base=staging_region, bytes_per_queue=staging_bytes_per_bin,
                value_bytes=value_bytes, flush_elems=chunk_elems)
    p.compress("comp", "chunksQ", ["compressedQ"],
               codec=codec or DeltaCodec(), elem_bytes=value_bytes,
               chunk_elems=chunk_elems + 1, sort_chunks=sort_chunks)
    p.bin_append("append", "compressedQ", num_queues=num_bins,
                 base=bins_region, bytes_per_queue=bin_bytes)
    return p
