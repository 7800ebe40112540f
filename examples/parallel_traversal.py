#!/usr/bin/env python
"""Parallel chunked traversal with work stealing (paper Sec III-D).

"Threads then enqueue traversals to fetchers chunk by chunk, and perform
work-stealing of chunks to avoid load imbalance."  This example runs the
functional multicore model: every core owns a SpZip fetcher bound to its
private L2 in one shared memory hierarchy; vertex chunks are dealt
round-robin and idle cores steal.

Run:  python examples/parallel_traversal.py
"""

from repro.config import SystemConfig
from repro.engine import compressed_csr_traversal, parallel_row_traversal
from repro.graph import CompressedCsr, load
from repro.memory import MemoryHierarchy

import numpy as np


def hierarchy_for(compressed):
    hier = MemoryHierarchy(SystemConfig().scaled(4096))
    hier.space.alloc_array("offsets", compressed.offsets, "adjacency")
    hier.space.alloc_array(
        "payload", np.frombuffer(compressed.payload, dtype=np.uint8),
        "adjacency")
    return hier


def main():
    graph = load("arb", 16384)
    compressed = CompressedCsr(graph)
    print(f"arb stand-in: {graph.num_vertices} vertices, "
          f"{graph.num_edges} edges, adjacency compressed "
          f"{compressed.compression_ratio():.2f}x")
    print(f"{'cores':>6s} {'makespan':>10s} {'speedup':>8s} "
          f"{'steals':>7s}")
    base = None
    for cores in (1, 2, 4, 8):
        stats = parallel_row_traversal(
            hierarchy_for(compressed), graph.num_vertices,
            compressed_csr_traversal, chunk_vertices=64,
            num_cores=cores)
        assert stats["total_elements"] == graph.num_edges
        if base is None:
            base = stats["makespan_cycles"]
        print(f"{cores:6d} {stats['makespan_cycles']:10d} "
              f"{base / stats['makespan_cycles']:8.2f} "
              f"{stats['steals']:7d}")
    print("every neighbour observed exactly once on every run")


if __name__ == "__main__":
    main()
