"""Unit + property tests for CSR graphs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import CsrGraph


def tiny_graph():
    """The paper's Fig 4 adjacency matrix."""
    return CsrGraph(np.array([0, 2, 4, 5, 7]),
                    np.array([1, 2, 0, 2, 3, 1, 2], dtype=np.uint32))


edge_lists = st.integers(2, 30).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                 max_size=120),
    )
)


class TestConstruction:
    def test_fig4_shape(self):
        g = tiny_graph()
        assert g.num_vertices == 4
        assert g.num_edges == 7
        assert g.avg_degree == pytest.approx(7 / 4)

    def test_rows_match_fig4(self):
        g = tiny_graph()
        assert g.row(0).tolist() == [1, 2]
        assert g.row(1).tolist() == [0, 2]
        assert g.row(2).tolist() == [3]
        assert g.row(3).tolist() == [1, 2]

    def test_from_edges_sorts_rows(self):
        g = CsrGraph.from_edges(3, [0, 0, 2], [2, 1, 0])
        assert g.row(0).tolist() == [1, 2]

    def test_from_edges_dedup(self):
        g = CsrGraph.from_edges(3, [0, 0, 0], [1, 1, 2])
        assert g.num_edges == 2

    def test_from_edges_drops_self_loops(self):
        g = CsrGraph.from_edges(3, [0, 1], [0, 2])
        assert g.num_edges == 1

    def test_from_edges_keeps_self_loops_when_asked(self):
        g = CsrGraph.from_edges(3, [0, 1], [0, 2],
                                drop_self_loops=False)
        assert g.num_edges == 2

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError):
            CsrGraph.from_edges(2, [0], [5])

    def test_validation_rejects_bad_offsets(self):
        with pytest.raises(ValueError):
            CsrGraph(np.array([1, 2]), np.array([0], dtype=np.uint32))
        with pytest.raises(ValueError):
            CsrGraph(np.array([0, 2, 1]), np.array([0, 0],
                                                   dtype=np.uint32))
        with pytest.raises(ValueError):
            CsrGraph(np.array([0, 1]), np.array([7], dtype=np.uint32))

    def test_values_length_checked(self):
        with pytest.raises(ValueError):
            CsrGraph(np.array([0, 1]), np.array([0], dtype=np.uint32),
                     values=np.array([1.0, 2.0]))


class TestDegrees:
    def test_out_degrees(self):
        assert tiny_graph().out_degrees().tolist() == [2, 2, 1, 2]

    def test_in_degrees(self):
        # Fig 4: incoming counts per column.
        assert tiny_graph().in_degrees().tolist() == [1, 2, 3, 1]


class TestTranspose:
    def test_transpose_reverses_edges(self):
        g = tiny_graph()
        t = g.transpose()
        assert t.num_edges == g.num_edges
        assert t.row(2).tolist() == [0, 1, 3]

    def test_double_transpose_is_identity(self):
        g = tiny_graph()
        tt = g.transpose().transpose()
        assert np.array_equal(tt.offsets, g.offsets)
        assert np.array_equal(tt.neighbors, g.neighbors)

    @settings(max_examples=25, deadline=None)
    @given(edge_lists)
    def test_transpose_preserves_edge_multiset(self, case):
        n, edges = case
        src = [e[0] for e in edges]
        dst = [e[1] for e in edges]
        g = CsrGraph.from_edges(n, src, dst)
        t = g.transpose()
        fwd = set()
        for v, row in g.iter_rows():
            fwd.update((v, int(u)) for u in row)
        back = set()
        for v, row in t.iter_rows():
            back.update((int(u), v) for u in row)
        assert fwd == back


class TestRelabel:
    def test_relabel_reverse_permutation(self):
        g = tiny_graph()
        perm = np.array([3, 2, 1, 0])
        r = g.relabel(perm)
        # old edge 0->1 becomes 3->2
        assert 2 in r.row(3).tolist()
        assert r.num_edges == g.num_edges

    def test_relabel_identity(self):
        g = tiny_graph()
        r = g.relabel(np.arange(4))
        assert np.array_equal(r.neighbors, g.neighbors)

    def test_relabel_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            tiny_graph().relabel(np.array([0, 0, 1, 2]))
        with pytest.raises(ValueError):
            tiny_graph().relabel(np.array([0, 1]))

    @settings(max_examples=25, deadline=None)
    @given(edge_lists, st.randoms())
    def test_relabel_preserves_structure(self, case, rand):
        n, edges = case
        g = CsrGraph.from_edges(n, [e[0] for e in edges],
                                [e[1] for e in edges])
        perm = list(range(n))
        rand.shuffle(perm)
        perm = np.array(perm)
        r = g.relabel(perm)
        assert r.num_edges == g.num_edges
        assert np.array_equal(np.sort(r.out_degrees()),
                              np.sort(g.out_degrees()))
        for v in range(n):
            expected = sorted(perm[g.row(v).astype(np.int64)].tolist())
            assert r.row(int(perm[v])).tolist() == expected


class TestMisc:
    def test_row_bounds(self):
        with pytest.raises(IndexError):
            tiny_graph().row(4)
