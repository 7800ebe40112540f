"""Entropy-compressed CSR — the Ligra+-style format SpZip traverses.

Fig 3's data structure: each row's neighbour set is individually
compressed (delta byte codes by default) and ``offsets`` points at the
start of each compressed row.  For algorithms that traverse rows
sequentially (PageRank-style), rows can instead be compressed in larger
multi-row *chunks*, which compress better (Sec II-B "DCL's generality").

The class keeps the real compressed bytes, so it serves both the
functional engines (which decompress rows on demand) and the traffic
model (which needs exact compressed footprints).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.compression import Codec, DeltaCodec
from repro.graph.csr import OFFSET_DTYPE, VERTEX_DTYPE, CsrGraph


class CompressedCsr:
    """CSR adjacency with per-row (or per-row-group) compressed payloads."""

    def __init__(self, graph: CsrGraph, codec: Optional[Codec] = None,
                 rows_per_chunk: int = 1) -> None:
        if rows_per_chunk < 1:
            raise ValueError("rows_per_chunk must be >= 1")
        self.codec = codec if codec is not None else DeltaCodec()
        self.rows_per_chunk = rows_per_chunk
        self.num_vertices = graph.num_vertices
        self.num_edges = graph.num_edges
        self._row_offsets = graph.offsets.copy()
        num_chunks = -(-graph.num_vertices // rows_per_chunk) \
            if graph.num_vertices else 0
        self.offsets = np.zeros(num_chunks + 1, dtype=OFFSET_DTYPE)
        payloads = []
        for chunk in range(num_chunks):
            first = chunk * rows_per_chunk
            last = min(graph.num_vertices, first + rows_per_chunk)
            rows = graph.neighbors[graph.offsets[first]:graph.offsets[last]]
            payloads.append(self.codec.encode(rows))
            self.offsets[chunk + 1] = self.offsets[chunk] + len(payloads[-1])
        self.payload = b"".join(payloads)

    # -- access ---------------------------------------------------------------

    def chunk_of(self, vertex: int) -> int:
        return vertex // self.rows_per_chunk

    def decompress_chunk(self, chunk: int) -> np.ndarray:
        """All neighbour ids in one compressed chunk, in row order."""
        first = chunk * self.rows_per_chunk
        last = min(self.num_vertices, first + self.rows_per_chunk)
        count = int(self._row_offsets[last] - self._row_offsets[first])
        data = self.payload[self.offsets[chunk]:self.offsets[chunk + 1]]
        return self.codec.decode(data, count, VERTEX_DTYPE)

    def row(self, vertex: int) -> np.ndarray:
        """Decompress and return one vertex's neighbour set."""
        if not 0 <= vertex < self.num_vertices:
            raise IndexError(f"vertex {vertex} out of range")
        chunk = self.chunk_of(vertex)
        values = self.decompress_chunk(chunk)
        first = chunk * self.rows_per_chunk
        start = int(self._row_offsets[vertex]
                    - self._row_offsets[first])
        end = start + int(self._row_offsets[vertex + 1]
                          - self._row_offsets[vertex])
        return values[start:end]

    # -- footprint -------------------------------------------------------------

    @property
    def payload_bytes(self) -> int:
        return len(self.payload)

    def total_bytes(self, offset_bytes: int = 8) -> int:
        """Compressed adjacency footprint including the offsets array."""
        return self.offsets.size * offset_bytes + self.payload_bytes

    def compression_ratio(self) -> float:
        """Neighbour-array compression ratio (the paper's 2.3x metric)."""
        raw = self.num_edges * np.dtype(VERTEX_DTYPE).itemsize
        return raw / max(1, self.payload_bytes)

    def to_csr(self) -> CsrGraph:
        """Decompress the whole structure back to plain CSR."""
        rows = [self.decompress_chunk(c)
                for c in range(self.offsets.size - 1)]
        neighbors = np.concatenate(rows) if rows else \
            np.empty(0, dtype=VERTEX_DTYPE)
        return CsrGraph(self._row_offsets, neighbors)
