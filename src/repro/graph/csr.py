"""Compressed Sparse Row graphs (paper Fig 1 / Fig 4).

CSR is the adjacency representation every algorithm in the paper uses:
``offsets[v]`` is the index of vertex ``v``'s first out-edge in the
``neighbors`` array.  (As the paper is careful to note, "compressed" in CSR
means zeros are not stored; entropy compression of CSR is what SpZip adds —
see :mod:`repro.graph.compressed_csr`.)

Neighbour lists are kept sorted within each row: graph semantics are
order-insensitive, and sorted rows are exactly what makes delta encoding
effective on neighbour ids.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

import numpy as np

OFFSET_DTYPE = np.int64
VERTEX_DTYPE = np.uint32


class CsrGraph:
    """Directed graph in CSR form, with optional per-edge values."""

    def __init__(self, offsets: np.ndarray, neighbors: np.ndarray,
                 values: Optional[np.ndarray] = None,
                 check: bool = True) -> None:
        self.offsets = np.asarray(offsets, dtype=OFFSET_DTYPE)
        self.neighbors = np.asarray(neighbors, dtype=VERTEX_DTYPE)
        self.values = None if values is None else np.asarray(values)
        self._digest: Optional[str] = None
        if check:
            self._validate()

    def _validate(self) -> None:
        if self.offsets.ndim != 1 or self.offsets.size < 1:
            raise ValueError("offsets must be a non-empty 1-D array")
        if self.offsets[0] != 0:
            raise ValueError("offsets must start at 0")
        if (np.diff(self.offsets) < 0).any():
            raise ValueError("offsets must be non-decreasing")
        if self.offsets[-1] != self.neighbors.size:
            raise ValueError("offsets end must equal edge count")
        if self.neighbors.size and self.neighbors.max() >= self.num_vertices:
            raise ValueError("neighbor id out of range")
        if self.values is not None and self.values.size != self.neighbors.size:
            raise ValueError("values must have one entry per edge")

    # -- shape --------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return self.offsets.size - 1

    @property
    def num_edges(self) -> int:
        return self.neighbors.size

    @property
    def avg_degree(self) -> float:
        return self.num_edges / max(1, self.num_vertices)

    def content_digest(self) -> str:
        """Memoized digest of the full graph content.

        Identifies a graph instance by value (structure + edge values),
        so memo tables keyed on it cannot collide across distinct
        graphs that merely share a vertex count.
        """
        if self._digest is None:
            import hashlib
            digest = hashlib.blake2b(digest_size=16)
            digest.update(np.ascontiguousarray(self.offsets).tobytes())
            digest.update(np.ascontiguousarray(self.neighbors)
                          .tobytes())
            if self.values is not None:
                digest.update(np.ascontiguousarray(self.values)
                              .tobytes())
            self._digest = digest.hexdigest()
        return self._digest

    def out_degrees(self) -> np.ndarray:
        return np.diff(self.offsets)

    def in_degrees(self) -> np.ndarray:
        counts = np.bincount(self.neighbors,
                             minlength=self.num_vertices)
        return counts.astype(OFFSET_DTYPE)

    # -- access --------------------------------------------------------------

    def row(self, vertex: int) -> np.ndarray:
        """Sorted out-neighbours of ``vertex``."""
        if not 0 <= vertex < self.num_vertices:
            raise IndexError(f"vertex {vertex} out of range")
        return self.neighbors[self.offsets[vertex]:self.offsets[vertex + 1]]

    def iter_rows(self) -> Iterable[Tuple[int, np.ndarray]]:
        for vertex in range(self.num_vertices):
            yield vertex, self.row(vertex)

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_edges(cls, num_vertices: int, src: np.ndarray, dst: np.ndarray,
                   values: Optional[np.ndarray] = None,
                   dedup: bool = True,
                   drop_self_loops: bool = True) -> "CsrGraph":
        """Build a CSR graph from an edge list (rows end up sorted)."""
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape:
            raise ValueError("src and dst must have the same shape")
        if src.size and (src.min() < 0 or src.max() >= num_vertices
                         or dst.min() < 0 or dst.max() >= num_vertices):
            raise ValueError("edge endpoint out of range")
        if values is not None:
            values = np.asarray(values)
        if drop_self_loops and src.size:
            keep = src != dst
            src, dst = src[keep], dst[keep]
            if values is not None:
                values = values[keep]
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        if values is not None:
            values = values[order]
        if dedup and src.size:
            keep = np.empty(src.size, dtype=bool)
            keep[0] = True
            keep[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
            src, dst = src[keep], dst[keep]
            if values is not None:
                values = values[keep]
        offsets = np.zeros(num_vertices + 1, dtype=OFFSET_DTYPE)
        np.add.at(offsets, src + 1, 1)
        np.cumsum(offsets, out=offsets)
        return cls(offsets, dst.astype(VERTEX_DTYPE), values)

    def apply(self, delta) -> "CsrGraph":
        """The graph with a :class:`~repro.graph.delta.GraphDelta`
        applied — bit-identical to rebuilding from the mutated edge
        list with :meth:`from_edges` (see :mod:`repro.graph.delta`)."""
        from repro.graph.delta import apply_delta
        return apply_delta(self, delta)

    def transpose(self) -> "CsrGraph":
        """Reverse every edge: row ``v`` lists ``v``'s in-neighbours."""
        src = np.repeat(np.arange(self.num_vertices, dtype=np.int64),
                        self.out_degrees())
        return CsrGraph.from_edges(self.num_vertices,
                                   self.neighbors.astype(np.int64), src,
                                   values=self.values,
                                   dedup=False, drop_self_loops=False)

    def relabel(self, perm: np.ndarray) -> "CsrGraph":
        """Renumber vertices: new id of old vertex ``v`` is ``perm[v]``."""
        perm = np.asarray(perm, dtype=np.int64)
        if perm.size != self.num_vertices:
            raise ValueError("permutation size mismatch")
        if np.sort(perm).tolist() != list(range(self.num_vertices)):
            raise ValueError("perm is not a permutation")
        src = np.repeat(np.arange(self.num_vertices, dtype=np.int64),
                        self.out_degrees())
        return CsrGraph.from_edges(self.num_vertices, perm[src],
                                   perm[self.neighbors.astype(np.int64)],
                                   values=self.values,
                                   dedup=False, drop_self_loops=False)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"CsrGraph(vertices={self.num_vertices}, "
                f"edges={self.num_edges})")
