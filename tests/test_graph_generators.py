"""Tests for the synthetic graph generators and the dataset registry."""

import numpy as np
import pytest

from repro.graph import (
    DATASETS,
    GRAPH_INPUTS,
    banded_matrix,
    community_graph,
    load,
    load_preprocessed,
    rmat,
)


class TestRmat:
    def test_shape_close_to_request(self):
        g = rmat(1000, 8000)
        assert g.num_vertices == 1000
        assert abs(g.num_edges - 8000) <= 8000 * 0.02

    def test_deterministic(self):
        a = rmat(500, 2000)
        b = rmat(500, 2000)
        assert np.array_equal(a.neighbors, b.neighbors)

    def test_degree_skew(self):
        g = rmat(2000, 20000)
        degrees = np.sort(g.out_degrees())[::-1]
        # Heavy tail: the top 1% of vertices own far more than 1% of edges.
        top = degrees[:20].sum()
        assert top > 0.05 * g.num_edges

    def test_bad_probabilities_rejected(self):
        with pytest.raises(ValueError):
            rmat(100, 500, a=0.5, b=0.3, c=0.3)

    def test_no_self_loops(self):
        g = rmat(300, 1500)
        for v, row in g.iter_rows():
            assert v not in row


class TestCommunityGraph:
    def test_shape(self):
        g = community_graph(2000, 20000)
        assert g.num_vertices == 2000
        assert abs(g.num_edges - 20000) <= 20000 * 0.02

    def test_locality_of_natural_order(self):
        """Most edges land near the source (crawl-order locality)."""
        g = community_graph(2000, 20000)
        src = np.repeat(np.arange(2000), g.out_degrees())
        distance = np.abs(src - g.neighbors.astype(np.int64))
        assert np.median(distance) < 64

    def test_deterministic(self):
        a = community_graph(800, 4000)
        b = community_graph(800, 4000)
        assert np.array_equal(a.neighbors, b.neighbors)


class TestBandedMatrix:
    def test_nonzeros_near_diagonal(self):
        m = banded_matrix(1000, 10000, bandwidth_fraction=0.02)
        rows = np.repeat(np.arange(1000), m.out_degrees())
        distance = np.abs(rows - m.neighbors.astype(np.int64))
        assert distance.max() <= 2 * max(2, int(1000 * 0.02)) + 20

    def test_rows_reasonably_balanced(self):
        m = banded_matrix(500, 5000)
        degrees = m.out_degrees()
        assert degrees.max() <= 40


class TestDatasets:
    def test_table3_entries(self):
        assert set(DATASETS) == {"arb", "ukl", "twi", "it", "web", "nlp"}
        assert DATASETS["ukl"].source == "uk-2005"
        assert DATASETS["twi"].kind == "social"
        assert DATASETS["nlp"].kind == "matrix"

    def test_graph_inputs_subset(self):
        assert set(GRAPH_INPUTS) < set(DATASETS)

    def test_scaled_shapes_preserve_avg_degree(self):
        for spec in DATASETS.values():
            vertices, edges = spec.scaled_shape(4096)
            paper_degree = spec.edges_m / spec.vertices_m
            assert edges / vertices == pytest.approx(paper_degree,
                                                     rel=0.15)

    def test_load_memoizes(self):
        assert load("arb", 65536) is load("arb", 65536)

    def test_load_unknown_rejected(self):
        with pytest.raises(KeyError):
            load("facebook")

    def test_load_preprocessed_none_randomizes(self):
        natural = load_preprocessed("arb", "natural", 65536)
        randomized = load_preprocessed("arb", "none", 65536)
        assert randomized.num_edges == natural.num_edges
        assert not np.array_equal(randomized.neighbors,
                                  natural.neighbors)
