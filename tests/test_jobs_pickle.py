"""Regression: profiling results must cross process boundaries.

The jobs layer's workers return :class:`RunMetrics` and may ship
:class:`Workload`/:class:`IterationProfile` structures through the
process pool; all three must survive a pickle round trip unchanged.
"""

import multiprocessing
import os
import pickle
import shutil
from operator import methodcaller

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
# Shared graph store: mapped graphs, across pools and after release
# --------------------------------------------------------------------------

def digest_in_worker(pool, graph):
    """Ship ``graph`` to a pool worker and return the digest it sees."""
    return pool.apply_async(methodcaller("content_digest"),
                            (graph,)).get(timeout=120)


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
    def test_roundtrip_without_store_still_inline(self, workload):
        """No store active: a graph pickles with its arrays inline."""
        shared.disable_graph_store()  # one an earlier test left active
        clone = roundtrip(workload)
        np.testing.assert_array_equal(clone.graph.neighbors,
                                      workload.graph.neighbors)
        assert clone.graph.content_digest() == \
            workload.graph.content_digest()

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

    def test_mapped_graph_roundtrips(self, graph_store):
        """A graph mapped from the store pickles like any other."""
        from repro.graph.datasets import load_preprocessed
        load_preprocessed("arb", "none", SCALE)
        graph = load_preprocessed.__wrapped__("arb", "none", SCALE)
        assert graph_store.open_segments > 0  # mapped, not generated
        clone = roundtrip(graph)
        np.testing.assert_array_equal(clone.neighbors, graph.neighbors)
        assert clone.content_digest() == graph.content_digest()

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_digest_identity_across_pool(self, graph_store, method):
        """A graph mapped from the store arrives in a worker with
        identical content."""
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{method} start method unavailable")
        from repro.graph.datasets import load_preprocessed
        load_preprocessed("arb", "none", SCALE)
        graph = load_preprocessed.__wrapped__("arb", "none", SCALE)
        assert graph_store.open_segments > 0  # mapped, not generated
        try:
            ctx = multiprocessing.get_context(method)
            with ctx.Pool(1) as pool:
                digest = digest_in_worker(pool, graph)
        except (OSError, ValueError) as exc:
            pytest.skip(f"process pool unavailable: {exc!r}")
        assert digest == graph.content_digest()

    def test_release_then_repickle_remaps(self, graph_store):
        """release() is not an invalidation: a released graph still
        pickles whole, and the next lookup maps the store again."""
        from repro.graph.datasets import load_preprocessed
        load_preprocessed("arb", "none", SCALE)
        graph = load_preprocessed.__wrapped__("arb", "none", SCALE)
        first = pickle.dumps(graph, protocol=pickle.HIGHEST_PROTOCOL)
        shared.release_graphs()
        assert graph_store.open_segments == 0
        again = load_preprocessed.__wrapped__("arb", "none", SCALE)
        assert graph_store.open_segments > 0
        second = pickle.dumps(again, protocol=pickle.HIGHEST_PROTOCOL)
        assert pickle.loads(second).content_digest() == \
            graph.content_digest()
        assert pickle.loads(first).content_digest() == \
            graph.content_digest()

    def test_stale_root_republishes_under_new_store(self, tmp_path):
        """A graph published under a store root that is later replaced
        (or deleted) is re-published under the new root, and maps from
        there, not from the dangling old paths."""
        from repro.graph.datasets import clear_cache, load_preprocessed
        clear_cache()
        store_a = shared.enable_graph_store(str(tmp_path / "a"))
        try:
            graph = load_preprocessed("arb", "none", SCALE)
            assert os.listdir(store_a.root)
            # Swap roots and delete the old one outright.
            shared.disable_graph_store()
            store_b = shared.enable_graph_store(str(tmp_path / "b"))
            shutil.rmtree(store_a.root)
            clear_cache()
            load_preprocessed("arb", "none", SCALE)
            assert any(name.endswith(".npy")
                       for name in os.listdir(store_b.root))
            mapped = load_preprocessed.__wrapped__("arb", "none", SCALE)
            assert store_b.open_segments > 0  # mapped from the new root
            assert mapped.content_digest() == graph.content_digest()
        finally:
            shared.disable_graph_store()
            clear_cache()

    def test_rootless_run_does_not_publish_into_an_earlier_root(
            self, tmp_path):
        """A run without a cache root builds its graphs in memory, even
        after an earlier run in the same process activated (and then
        deleted) a store root."""
        from repro.graph.datasets import clear_cache
        from repro.jobs import RunRequest
        clear_cache()  # so the second run's load really builds ukl
        root = tmp_path / "cache"
        try:
            JobRunner(scale=1 << 20, cache_dir=str(root)).prefetch(
                [RunRequest("dc", "push", "arb")])
            shutil.rmtree(root)
            priced = JobRunner(scale=1 << 20).prefetch(
                [RunRequest("dc", "push", "ukl")])
            assert list(priced) == [RunRequest("dc", "push", "ukl")]
            assert shared.active_graph_store() is None
            assert not root.exists()
        finally:
            shared.disable_graph_store()
            clear_cache()

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_delta_rotates_digest_mid_pool(self, graph_store, method):
        """A graph delta applied while a pool is live publishes the
        mutated instance under a fresh digest; workers see the base
        before and after, and the mutation once it is shipped."""
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{method} start method unavailable")
        from repro.graph.datasets import apply_delta, load
        from repro.graph.delta import sample_delta
        base = load("ukl", SCALE)
        base_digest = base.content_digest()
        try:
            ctx = multiprocessing.get_context(method)
            with ctx.Pool(1) as pool:
                assert digest_in_worker(pool, base) == base_digest
                # Mid-pool mutation: the head rotates, the base does
                # not move.
                handle = apply_delta(
                    "ukl", sample_delta(base, seed=5, insertions=6,
                                        deletions=6), SCALE)
                assert handle.graph.content_digest() != base_digest
                assert digest_in_worker(pool, handle.graph) == \
                    handle.graph.content_digest()
                # The worker still resolves the base identity too.
                assert digest_in_worker(pool, base) == base_digest
        except (OSError, ValueError) as exc:
            pytest.skip(f"process pool unavailable: {exc!r}")
