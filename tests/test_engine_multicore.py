"""Tests for the functional multicore traversal (Sec III-D runtime)."""

import pytest

from repro.config import SystemConfig
from repro.engine import csr_traversal
from repro.engine.multicore import (
    MulticoreTraversal,
    make_chunks,
    parallel_row_traversal,
)
from repro.graph import community_graph
from repro.memory import MemoryHierarchy


def fresh_hierarchy(graph):
    hier = MemoryHierarchy(SystemConfig().scaled(4096))
    hier.space.alloc_array("offsets", graph.offsets, "adjacency")
    hier.space.alloc_array("rows", graph.neighbors, "adjacency")
    return hier


@pytest.fixture(scope="module")
def graph():
    return community_graph(512, 4000, seed_stream="mc-tests")


class TestChunking:
    def test_chunks_cover_exactly(self):
        chunks = make_chunks(100, 32)
        assert chunks == [(0, 32), (32, 64), (64, 96), (96, 100)]

    def test_bad_chunk_size(self):
        with pytest.raises(ValueError):
            make_chunks(10, 0)


class TestParallelTraversal:
    def test_all_edges_observed_once(self, graph):
        stats = parallel_row_traversal(
            fresh_hierarchy(graph), graph.num_vertices,
            lambda: csr_traversal(row_elem_bytes=4),
            chunk_vertices=32, num_cores=4)
        assert stats["total_elements"] == graph.num_edges
        # One marker per non-... every row emits a marker.
        assert sum(stats["per_core_markers"]) >= graph.num_vertices

    def test_collected_rows_match_graph(self, graph):
        stats = parallel_row_traversal(
            fresh_hierarchy(graph), graph.num_vertices,
            lambda: csr_traversal(row_elem_bytes=4),
            chunk_vertices=64, num_cores=2, collect=True)
        values = []
        for entries in stats["collected"].values():
            values.extend(v for v, marker in entries if not marker)
        assert sorted(values) == sorted(graph.neighbors.tolist())

    def test_parallelism_scales(self, graph):
        one = parallel_row_traversal(
            fresh_hierarchy(graph), graph.num_vertices,
            lambda: csr_traversal(row_elem_bytes=4),
            chunk_vertices=32, num_cores=1)
        four = parallel_row_traversal(
            fresh_hierarchy(graph), graph.num_vertices,
            lambda: csr_traversal(row_elem_bytes=4),
            chunk_vertices=32, num_cores=4)
        speedup = one["makespan_cycles"] / four["makespan_cycles"]
        assert speedup > 2.5

    def test_work_stealing_on_skewed_chunks(self, graph):
        """One huge chunk plus many tiny ones: the fast core drains its
        deal and steals the slow core's queued work."""
        hier = fresh_hierarchy(graph)
        from repro.dcl import pack_range
        from repro.engine.pipelines import INPUT_QUEUE, ROWS_QUEUE

        def feed(fetcher, chunk):
            fetcher.enqueue(INPUT_QUEUE, 0, marker=True)
            fetcher.enqueue(INPUT_QUEUE, pack_range(chunk[0],
                                                    chunk[1] + 1))

        traversal = MulticoreTraversal(
            hier, lambda: csr_traversal(row_elem_bytes=4), feed,
            [ROWS_QUEUE], num_cores=2)
        big = (0, 400)
        tinies = make_chunks(graph.num_vertices, 8)[50:]
        stats = traversal.run([big] + tinies)
        expected = int(graph.out_degrees()[0:400].sum()
                       + graph.out_degrees()[400:].sum())
        assert stats["total_elements"] == expected
        assert stats["steals"] > 0

    def test_per_core_counts_sum(self, graph):
        stats = parallel_row_traversal(
            fresh_hierarchy(graph), graph.num_vertices,
            lambda: csr_traversal(row_elem_bytes=4),
            chunk_vertices=16, num_cores=8)
        assert sum(stats["per_core_elements"]) == stats["total_elements"]
