"""Tests for preprocessing (reordering) algorithms and id expansion."""

import numpy as np
import pytest

from repro.compression import DeltaCodec
from repro.graph import (
    CsrGraph,
    bfs_order,
    community_graph,
    degree_sort,
    dfs_order,
    gorder,
    identity_order,
    preprocess,
    randomize,
)
from repro.graph.idspace import expand_ids


def sample_graph():
    return community_graph(600, 4000, seed_stream="pp-test")


def is_permutation(perm, n):
    return sorted(perm.tolist()) == list(range(n))


class TestPermutations:
    @pytest.mark.parametrize("method", [
        identity_order, randomize, degree_sort, bfs_order, dfs_order,
    ])
    def test_returns_permutation(self, method):
        g = sample_graph()
        assert is_permutation(method(g), g.num_vertices)

    def test_gorder_returns_permutation(self):
        g = community_graph(150, 900, seed_stream="pp-small")
        assert is_permutation(gorder(g), g.num_vertices)

    def test_identity_is_identity(self):
        g = sample_graph()
        assert np.array_equal(identity_order(g),
                              np.arange(g.num_vertices))

    def test_randomize_deterministic_per_graph(self):
        g = sample_graph()
        assert np.array_equal(randomize(g), randomize(g))

    def test_degree_sort_orders_by_degree(self):
        g = sample_graph()
        relabeled = g.relabel(degree_sort(g))
        degrees = relabeled.out_degrees()
        assert (np.diff(degrees) <= 0).all()

    def test_traversal_orders_cover_disconnected_graphs(self):
        # Two components: 0->1, 2->3.
        g = CsrGraph.from_edges(4, [0, 2], [1, 3])
        for method in (bfs_order, dfs_order):
            assert is_permutation(method(g), 4)

    def test_preprocess_dispatch(self):
        g = sample_graph()
        out = preprocess(g, "dfs")
        assert out.num_edges == g.num_edges
        with pytest.raises(KeyError):
            preprocess(g, "zorder")


class TestOrderingQuality:
    def test_topological_orders_beat_random_on_compression(self):
        """The paper's core preprocessing claim (Fig 18): BFS/DFS improve
        adjacency value locality far more than random ids."""
        g = sample_graph()
        codec = DeltaCodec()

        def row_bytes(graph):
            total = 0
            ex = expand_ids(graph.neighbors, 4096).astype(np.uint32)
            for v in range(graph.num_vertices):
                row = ex[graph.offsets[v]:graph.offsets[v + 1]]
                if row.size:
                    total += min(codec.encoded_size(row), 4 * row.size)
            return total

        big = community_graph(2400, 20000, seed_stream="pp-big")
        random_bytes = row_bytes(big.relabel(randomize(big)))
        dfs_bytes = row_bytes(big.relabel(dfs_order(big)))
        bfs_bytes = row_bytes(big.relabel(bfs_order(big)))
        assert dfs_bytes < 0.85 * random_bytes
        assert bfs_bytes < 0.9 * random_bytes

    def test_gorder_at_least_matches_degree_sort(self):
        g = community_graph(200, 1400, seed_stream="pp-gorder")
        codec = DeltaCodec()

        def row_bytes(graph):
            total = 0
            ex = expand_ids(graph.neighbors, 4096).astype(np.uint32)
            for v in range(graph.num_vertices):
                row = ex[graph.offsets[v]:graph.offsets[v + 1]]
                if row.size:
                    total += min(codec.encoded_size(row), 4 * row.size)
            return total

        assert row_bytes(g.relabel(gorder(g))) <= \
            1.1 * row_bytes(g.relabel(degree_sort(g)))


class TestIdExpansion:
    def test_identity_at_scale_one(self):
        ids = np.array([3, 1, 9], dtype=np.uint32)
        assert np.array_equal(expand_ids(ids, 1), ids.astype(np.uint64))

    def test_strictly_monotonic(self):
        ids = np.arange(10000, dtype=np.uint32)
        virtual = expand_ids(ids, 4096)
        assert (np.diff(virtual.astype(np.int64)) > 0).all()

    def test_long_gaps_scale_fully(self):
        a = expand_ids(np.array([0]), 4096)[0]
        b = expand_ids(np.array([2560]), 4096)[0]
        assert int(b) - int(a) >= 2560 * 4096 * 0.9

    def test_local_gaps_stay_small(self):
        a = expand_ids(np.array([100]), 4096)[0]
        b = expand_ids(np.array([101]), 4096)[0]
        assert int(b) - int(a) <= 16

    def test_bad_block_rejected(self):
        with pytest.raises(ValueError):
            expand_ids(np.array([0]), 4096, block=100)

    def test_randomized_ids_stop_compressing_when_expanded(self):
        rng = np.random.default_rng(0)
        ids = np.sort(rng.choice(10_000, 24, replace=False)).astype(np.uint32)
        codec = DeltaCodec()
        small = codec.encoded_size(ids)
        expanded = codec.encoded_size(expand_ids(ids, 4096).astype(np.uint32))
        assert expanded > small
        # Nearly raw-size: randomized paper-scale ids do not compress.
        assert expanded >= 0.8 * 4 * ids.size
