"""Regression: profiling results must cross process boundaries.

The jobs layer's workers return :class:`RunMetrics` and may ship
:class:`Workload`/:class:`IterationProfile` structures through the
process pool; all three must survive a pickle round trip unchanged.
"""

import multiprocessing
import pickle

import numpy as np
import pytest

from repro.graph import shared
from repro.jobs import JobRunner
from repro.sim.metrics import RunMetrics
from repro.sim.runner import identity_workload, sized_model_config

SCALE = 65536


@pytest.fixture(scope="module")
def runner():
    return JobRunner(scale=SCALE)


@pytest.fixture(scope="module")
def workload():
    return identity_workload("dc", "arb", "none", SCALE)


def roundtrip(obj):
    return pickle.loads(pickle.dumps(obj,
                                     protocol=pickle.HIGHEST_PROTOCOL))


def test_workload_roundtrips(workload):
    clone = roundtrip(workload)
    assert clone.app == workload.app
    assert clone.frontier_based == workload.frontier_based
    assert clone.dst_value_bytes == workload.dst_value_bytes
    np.testing.assert_array_equal(clone.graph.offsets,
                                  workload.graph.offsets)
    np.testing.assert_array_equal(clone.graph.neighbors,
                                  workload.graph.neighbors)
    assert clone.graph.content_digest() == \
        workload.graph.content_digest()
    assert len(clone.iterations) == len(workload.iterations)
    for ours, theirs in zip(workload.iterations, clone.iterations):
        assert theirs.weight == ours.weight
        np.testing.assert_array_equal(theirs.sources, ours.sources)
        np.testing.assert_array_equal(theirs.src_values,
                                      ours.src_values)
        np.testing.assert_array_equal(theirs.update_values,
                                      ours.update_values)


def test_iteration_profiles_roundtrip(runner):
    profiles = runner.profiles("dc", "arb")
    assert profiles
    clones = roundtrip(profiles)
    assert clones == profiles  # dataclass equality, field by field


def test_run_metrics_roundtrip(runner):
    metrics = runner.run("dc", "phi+spzip", "arb")
    clone = roundtrip(metrics)
    assert clone == metrics
    assert isinstance(clone, RunMetrics)
    # Bit-exact floats: warm-cache reports must be byte-identical.
    assert clone.cycles.hex() == metrics.cycles.hex()
    for cls, nbytes in metrics.traffic.items():
        assert clone.traffic[cls].hex() == nbytes.hex()


def test_workload_roundtrip_prices_identically(runner, workload):
    """A shipped workload prices exactly like the original."""
    from repro.schemes import resolve
    from repro.stages.pipeline import compose, price_bundle
    cfg = sized_model_config(runner.system, runner.scale,
                             workload.graph.num_vertices)
    local = price_bundle(compose(workload, cfg), resolve("phi"),
                         "arb", "none")
    shipped = price_bundle(compose(roundtrip(workload), roundtrip(cfg)),
                           resolve("phi"), "arb", "none")
    assert shipped == local
    assert local == runner.run("dc", "phi", "arb")


# --------------------------------------------------------------------------
# Shared graph store: worker payloads must not embed graph arrays
# --------------------------------------------------------------------------

@pytest.fixture
def graph_store(tmp_path):
    """Activate an isolated shared graph store for one test."""
    from repro.graph.datasets import clear_cache
    clear_cache()
    store = shared.enable_graph_store(str(tmp_path / "graphs"))
    try:
        yield store
    finally:
        shared.disable_graph_store()
        clear_cache()


class TestSharedGraphStore:
    def test_graph_payload_excludes_arrays(self, graph_store, workload):
        """Store active: a pickled graph is paths, not array bytes."""
        graph = workload.graph
        payload = pickle.dumps(graph,
                               protocol=pickle.HIGHEST_PROTOCOL)
        # Orders of magnitude under the inline array footprint.
        assert len(payload) < 1024
        assert len(payload) < graph.neighbors.nbytes // 8
        # And the raw adjacency bytes genuinely do not ride along.
        assert np.ascontiguousarray(
            graph.neighbors).tobytes() not in payload

    def test_workload_payload_excludes_graph_arrays(self, graph_store,
                                                    workload):
        payload = pickle.dumps(workload,
                               protocol=pickle.HIGHEST_PROTOCOL)
        # Iteration arrays still ride along inline; the graph's three
        # CSR arrays must not — only their store paths do.
        for arr in (workload.graph.offsets, workload.graph.neighbors):
            assert np.ascontiguousarray(arr).tobytes() not in payload
        clone = pickle.loads(payload)
        assert clone.graph.content_digest() == \
            workload.graph.content_digest()
        np.testing.assert_array_equal(clone.graph.neighbors,
                                      workload.graph.neighbors)

    def test_roundtrip_without_store_still_inline(self, workload):
        """No store active: the old inline pickling, bit for bit."""
        assert shared.active_graph_store() is None
        clone = roundtrip(workload)
        np.testing.assert_array_equal(clone.graph.neighbors,
                                      workload.graph.neighbors)
        assert clone.graph.content_digest() == \
            workload.graph.content_digest()

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_digest_identity_across_pool(self, graph_store, method,
                                         workload):
        """A mapped graph unpickles to identical content in workers."""
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{method} start method unavailable")
        payload = pickle.dumps(workload.graph,
                               protocol=pickle.HIGHEST_PROTOCOL)
        try:
            ctx = multiprocessing.get_context(method)
            with ctx.Pool(1) as pool:
                digest = pool.apply(shared.graph_digest_of_payload,
                                    (payload,))
        except (OSError, ValueError) as exc:
            pytest.skip(f"process pool unavailable: {exc!r}")
        assert digest == workload.graph.content_digest()

    def test_release_drops_segments(self, graph_store):
        from repro.graph.datasets import load_preprocessed
        load_preprocessed("arb", "none", SCALE)
        graph = load_preprocessed.__wrapped__("arb", "none", SCALE)
        # The second materialization maps from the store.
        assert graph_store.open_segments > 0
        shared.release_graphs()
        assert graph_store.open_segments == 0
        # Released mappings stay readable while referenced.
        assert graph.num_vertices > 0
        assert int(graph.offsets[-1]) == graph.neighbors.size

    def test_release_then_repickle_remaps(self, graph_store):
        """release() is not an invalidation: the next pickle of a
        store-published graph still ships paths and resolves."""
        from repro.graph.datasets import load
        graph = load("arb", SCALE)
        first = pickle.dumps(graph, protocol=pickle.HIGHEST_PROTOCOL)
        shared.release_graphs()
        assert graph_store.open_segments == 0
        second = pickle.dumps(graph, protocol=pickle.HIGHEST_PROTOCOL)
        assert len(second) < 1024
        clone = pickle.loads(second)
        assert clone.content_digest() == graph.content_digest()
        assert pickle.loads(first).content_digest() == \
            graph.content_digest()

    def test_stale_root_republishes_under_new_store(self, tmp_path,
                                                    workload):
        """A graph memoized under a store root that is later replaced
        (or deleted) must re-publish under the new root, not hand
        workers dangling paths."""
        import os
        import shutil
        from repro.graph.datasets import clear_cache
        clear_cache()
        store_a = shared.enable_graph_store(str(tmp_path / "a"))
        try:
            graph = workload.graph
            pickle.dumps(graph, protocol=pickle.HIGHEST_PROTOCOL)
            paths_a = graph._store_paths
            assert os.path.dirname(paths_a[0]) == store_a.root
            # Swap roots and delete the old one outright: the memoized
            # paths now point at nothing.
            shared.disable_graph_store()
            store_b = shared.enable_graph_store(str(tmp_path / "b"))
            shutil.rmtree(store_a.root)
            payload = pickle.dumps(graph,
                                   protocol=pickle.HIGHEST_PROTOCOL)
            assert os.path.dirname(graph._store_paths[0]) == \
                store_b.root
            clone = pickle.loads(payload)
            assert clone.content_digest() == graph.content_digest()
        finally:
            shared.disable_graph_store()
            clear_cache()

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_delta_rotates_digest_mid_pool(self, graph_store, method):
        """A graph delta applied while a pool is live publishes the
        mutated instance under a fresh digest; in-flight workers keep
        resolving the base and new submissions see the mutation."""
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{method} start method unavailable")
        from repro.graph.datasets import apply_delta, load
        from repro.graph.delta import sample_delta
        base = load("ukl", SCALE)
        base_payload = pickle.dumps(base,
                                    protocol=pickle.HIGHEST_PROTOCOL)
        try:
            ctx = multiprocessing.get_context(method)
            with ctx.Pool(1) as pool:
                assert pool.apply(shared.graph_digest_of_payload,
                                  (base_payload,)) == \
                    base.content_digest()
                # Mid-pool mutation: the head rotates, the base does
                # not move.
                handle = apply_delta(
                    "ukl", sample_delta(base, seed=5, insertions=6,
                                        deletions=6), SCALE)
                assert handle.graph.content_digest() != \
                    base.content_digest()
                mut_payload = pickle.dumps(
                    handle.graph, protocol=pickle.HIGHEST_PROTOCOL)
                assert pool.apply(shared.graph_digest_of_payload,
                                  (mut_payload,)) == \
                    handle.graph.content_digest()
                # The worker still resolves the base identity too.
                assert pool.apply(shared.graph_digest_of_payload,
                                  (base_payload,)) == \
                    base.content_digest()
        except (OSError, ValueError) as exc:
            pytest.skip(f"process pool unavailable: {exc!r}")
