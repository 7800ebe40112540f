"""Graph deltas: canonicalization, apply semantics, versioned registry.

The dynamic-graph contract has one load-bearing invariant: a graph
maintained incrementally through :func:`~repro.graph.delta.apply_delta`
is *bit-identical* (same content digest) to a from-scratch rebuild of
the mutated edge list.  Everything downstream — partition keys, stage
fingerprints, cache reuse — leans on that, so these tests check digests,
not just shapes.
"""

import numpy as np
import pytest

from repro.graph import shared
from repro.graph.csr import CsrGraph
from repro.graph.delta import (
    GraphDelta,
    MutableGraphHandle,
    apply_delta,
    sample_delta,
)
from repro.graph.datasets import (
    apply_delta as apply_dataset_delta,
    clear_cache,
    current_handle,
    load,
    resolve_version,
    split_version,
    version_exists,
)

SCALE = 65536


@pytest.fixture(autouse=True)
def clean_registry():
    clear_cache()
    yield
    shared.disable_graph_store()
    clear_cache()


def tiny_graph():
    # 0 -> {1, 2}, 1 -> {2}, 2 -> {0}, 3 -> {}
    return CsrGraph.from_edges(
        4, np.array([0, 0, 1, 2]), np.array([1, 2, 2, 0]))


def valued_graph():
    src = np.array([0, 0, 1, 2, 3])
    dst = np.array([1, 2, 2, 0, 1])
    values = np.array([10, 20, 30, 40, 50], dtype=np.int64)
    return CsrGraph.from_edges(4, src, dst, values=values)


class TestCanonicalization:
    def test_two_spellings_share_digest(self):
        a = GraphDelta.of(insertions=[[2, 3], [0, 3], [2, 3]],
                          deletions=[[1, 2]])
        b = GraphDelta.of(insertions=[[0, 3], [2, 3]],
                          deletions=[[1, 2]])
        assert a.insertions.tolist() == b.insertions.tolist()
        assert a.content_digest() == b.content_digest()

    def test_self_loops_dropped(self):
        delta = GraphDelta.of(insertions=[[1, 1], [0, 3]])
        assert delta.insertions.shape == (1, 2)
        assert delta.insertions.tolist() == [[0, 3]]

    def test_insert_delete_not_interchangeable(self):
        ins = GraphDelta.of(insertions=[[0, 3]])
        dels = GraphDelta.of(deletions=[[0, 3]])
        assert ins.content_digest() != dels.content_digest()

    def test_values_follow_their_edges_through_canonicalization(self):
        # Unsorted insertions with a self-loop and a duplicate: values
        # must stay attached to the surviving, sorted edges.
        delta = GraphDelta.of(
            insertions=[[2, 0], [1, 1], [0, 3], [2, 0]],
            insert_values=np.array([7.0, 9.0, 5.0, 7.0]))
        assert delta.insertions.tolist() == [[0, 3], [2, 0]]
        assert delta.insert_values.tolist() == [5.0, 7.0]

    def test_value_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="one entry per insertion"):
            GraphDelta.of(insertions=[[0, 1], [0, 2]],
                          insert_values=np.array([1.0]))

    def test_malformed_edges_rejected(self):
        with pytest.raises(ValueError, match="edge array"):
            GraphDelta.of(insertions=[[0, 1, 2]])
        with pytest.raises(ValueError, match="negative"):
            GraphDelta.of(deletions=[[-1, 2]])

    def test_shape_properties(self):
        delta = GraphDelta.of(insertions=[[0, 3]], deletions=[[1, 2]])
        assert delta.num_changes == 2
        assert not delta.empty
        assert delta.touched_rows().tolist() == [0, 1]
        assert GraphDelta.of().empty


class TestApplySemantics:
    def test_insert_and_delete(self):
        graph = tiny_graph()
        mutated = graph.apply(GraphDelta.of(insertions=[[3, 0]],
                                            deletions=[[0, 2]]))
        # Oracle: rebuild the mutated edge list from scratch.
        oracle = CsrGraph.from_edges(
            4, np.array([0, 1, 2, 3]), np.array([1, 2, 0, 0]))
        assert mutated.content_digest() == oracle.content_digest()

    def test_reinsert_existing_edge_is_noop(self):
        graph = tiny_graph()
        mutated = graph.apply(GraphDelta.of(insertions=[[0, 1]]))
        assert mutated.content_digest() == graph.content_digest()

    def test_delete_missing_edge_is_noop(self):
        graph = tiny_graph()
        mutated = graph.apply(GraphDelta.of(deletions=[[3, 1]]))
        assert mutated.content_digest() == graph.content_digest()

    def test_empty_delta_is_identity(self):
        graph = tiny_graph()
        assert graph.apply(GraphDelta.of()).content_digest() == \
            graph.content_digest()

    def test_endpoint_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            tiny_graph().apply(GraphDelta.of(insertions=[[0, 99]]))

    def test_values_preserved_and_extended(self):
        graph = valued_graph()
        mutated = graph.apply(GraphDelta.of(
            insertions=[[3, 0]], deletions=[[0, 2]],
            insert_values=np.array([99], dtype=np.int64)))
        oracle = CsrGraph.from_edges(
            4, np.array([0, 1, 2, 3, 3]), np.array([1, 2, 0, 1, 0]),
            values=np.array([10, 30, 40, 50, 99], dtype=np.int64))
        assert mutated.values is not None
        assert mutated.content_digest() == oracle.content_digest()

    def test_reinserted_edge_keeps_original_value(self):
        graph = valued_graph()
        mutated = graph.apply(GraphDelta.of(
            insertions=[[0, 1]],
            insert_values=np.array([777], dtype=np.int64)))
        assert mutated.content_digest() == graph.content_digest()

    def test_valued_graph_requires_insert_values(self):
        with pytest.raises(ValueError, match="insert_values"):
            valued_graph().apply(GraphDelta.of(insertions=[[3, 0]]))

    @pytest.mark.parametrize("kind", ["insert", "delete", "mixed"])
    def test_randomized_parity_with_from_scratch(self, kind):
        """Incremental apply == from-scratch rebuild on a real dataset."""
        graph = load("ukl", SCALE)
        ins = 12 if kind in ("insert", "mixed") else 0
        dels = 12 if kind in ("delete", "mixed") else 0
        delta = sample_delta(graph, seed=7, insertions=ins,
                             deletions=dels)
        mutated = graph.apply(delta)
        # Independent oracle over plain Python edge sets.
        edges = set()
        for src in range(graph.num_vertices):
            for pos in range(int(graph.offsets[src]),
                             int(graph.offsets[src + 1])):
                edges.add((src, int(graph.neighbors[pos])))
        edges -= {tuple(e) for e in delta.deletions.tolist()}
        edges |= {tuple(e) for e in delta.insertions.tolist()}
        pairs = sorted(edges)
        oracle = CsrGraph.from_edges(
            graph.num_vertices,
            np.array([s for s, _d in pairs]),
            np.array([d for _s, d in pairs]))
        assert mutated.content_digest() == oracle.content_digest()

    def test_sample_delta_respects_row_range(self):
        graph = load("ukl", SCALE)
        delta = sample_delta(graph, seed=3, insertions=20, deletions=20,
                             row_range=(64, 128))
        rows = delta.touched_rows()
        assert rows.size > 0
        assert rows.min() >= 64 and rows.max() < 128


class TestLineage:
    def test_version_digests_lineage(self):
        graph = tiny_graph()
        base = MutableGraphHandle(name="t", scale=SCALE, graph=graph,
                                  base_digest=graph.content_digest())
        assert base.version == ""
        assert base.versioned_name == "t"
        d1 = GraphDelta.of(insertions=[[3, 0]])
        d2 = GraphDelta.of(deletions=[[0, 1]])
        h12 = base.apply(d1).apply(d2)
        h21 = base.apply(d2).apply(d1)
        # Same deltas, same order -> same version tag; different order
        # is a different lineage even when the graphs agree.
        assert h12.version == base.apply(d1).apply(d2).version
        assert h12.version != h21.version
        assert h12.versioned_name == f"t@{h12.version}"
        assert h12.lineage == (graph.content_digest(),
                               (d1.content_digest(),
                                d2.content_digest()))


class TestDatasetRegistry:
    def test_apply_registers_new_head(self):
        base = load("ukl", SCALE)
        delta = sample_delta(base, seed=1, insertions=5, deletions=5)
        handle = apply_dataset_delta("ukl", delta, SCALE)
        name, version = split_version(handle.versioned_name)
        assert name == "ukl" and version
        assert resolve_version("ukl", SCALE) == handle.versioned_name
        assert version_exists(handle.versioned_name, SCALE)
        assert current_handle("ukl", SCALE) is handle
        # The bare name still loads the *base* graph.
        assert load("ukl", SCALE).content_digest() == \
            base.content_digest()
        assert load(handle.versioned_name, SCALE).content_digest() == \
            handle.graph.content_digest()

    def test_deltas_chain_from_the_head(self):
        base = load("ukl", SCALE)
        h1 = apply_dataset_delta(
            "ukl", sample_delta(base, seed=1, insertions=5), SCALE)
        h2 = apply_dataset_delta(
            "ukl", sample_delta(base, seed=2, deletions=5), SCALE)
        assert h2.deltas[:1] == h1.deltas
        assert len(h2.deltas) == 2
        assert resolve_version("ukl", SCALE) == h2.versioned_name
        # Explicit versions keep addressing their own instance.
        assert resolve_version(h1.versioned_name, SCALE) == \
            h1.versioned_name
        assert load(h1.versioned_name, SCALE).content_digest() == \
            h1.graph.content_digest()

    def test_unknown_names_rejected(self):
        with pytest.raises(KeyError):
            apply_dataset_delta("nope", GraphDelta.of(
                insertions=[[0, 1]]), SCALE)
        with pytest.raises(KeyError):
            load("ukl@deadbeefdeadbeef", SCALE)
        assert not version_exists("ukl@deadbeefdeadbeef", SCALE)
        assert not version_exists("nope", SCALE)

    def test_mutation_does_not_shadow_base_manifest(self, tmp_path):
        """Satellite regression: a delta-mutated dataset gets its own
        manifest entry in the graph store — the base graph's cached
        memmap is untouched and still resolves to the base content."""
        store = shared.enable_graph_store(str(tmp_path / "graphs"))
        base = load("ukl", SCALE)  # publishes load/ukl/<scale>
        base_digest = base.content_digest()
        delta = sample_delta(base, seed=9, insertions=8, deletions=8)
        handle = apply_dataset_delta("ukl", delta, SCALE)
        assert handle.graph.content_digest() != base_digest
        # Both manifests exist, under distinct keys, with the right
        # content behind each.
        stored_base = store.get_graph(f"load/ukl/{SCALE}")
        stored_mut = store.get_graph(
            f"load/{handle.versioned_name}/{SCALE}")
        assert stored_base is not None and stored_mut is not None
        assert stored_base.content_digest() == base_digest
        assert stored_mut.content_digest() == \
            handle.graph.content_digest()

    def test_publishes_before_moving_the_head(self, tmp_path,
                                              monkeypatch):
        """A bare-name read racing ``apply_delta`` (``/graph/delta``
        runs it in a thread) must never resolve to a version the graph
        store cannot serve yet: publication precedes the head move."""
        store = shared.enable_graph_store(str(tmp_path / "graphs"))
        base = load("ukl", SCALE)
        heads_at_publish = []
        publish = store.put_graph

        def spy(key, graph):
            heads_at_publish.append(resolve_version("ukl", SCALE))
            publish(key, graph)

        monkeypatch.setattr(store, "put_graph", spy)
        h1 = apply_dataset_delta(
            "ukl", sample_delta(base, seed=1, insertions=5), SCALE)
        h2 = apply_dataset_delta(
            "ukl", sample_delta(base, seed=2, deletions=5), SCALE)
        assert heads_at_publish == ["ukl", h1.versioned_name]
        assert resolve_version("ukl", SCALE) == h2.versioned_name

    def test_published_version_loads_in_fresh_registry(self, tmp_path):
        """How a pool worker sees the dispatcher's mutation: the
        in-process registry is empty, the graph store resolves it."""
        shared.enable_graph_store(str(tmp_path / "graphs"))
        base = load("ukl", SCALE)
        handle = apply_dataset_delta(
            "ukl", sample_delta(base, seed=4, insertions=6), SCALE)
        versioned = handle.versioned_name
        digest = handle.graph.content_digest()
        # Simulate a fresh worker process: clear the in-process
        # registry but keep the store.
        load.cache_clear()
        from repro.graph.datasets import _HANDLES, _HEADS
        _HANDLES.clear()
        _HEADS.clear()
        assert version_exists(versioned, SCALE)
        assert load(versioned, SCALE).content_digest() == digest
