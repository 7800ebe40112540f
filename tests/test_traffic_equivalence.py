"""Array-native stream generation vs the scalar oracles, bit for bit.

The pricing stages (:mod:`repro.stages`) emit every per-strategy access
stream from raw CSR arrays in vectorized passes; the ``*_scalar``
oracles in :mod:`repro.runtime.traffic_array` walk the same definitions
vertex by vertex.  These tests hold the two sides exactly equal —
generator by generator, and end to end through full iteration profiles
of the stage composition — across hostile shapes: tiny LLCs,
``id_scale=1``, empty and sparse frontiers, self-loops, duplicate
edges, and isolated vertices.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.apps import bfs as bfs_app, pagerank
from repro.config import SystemConfig
from repro.graph import community_graph
from repro.graph.csr import CsrGraph
from repro.runtime import ModelConfig
from repro.runtime import traffic_array as ta
from repro.runtime.traffic import (
    array_compressed_bytes,
    chunked_ids_values_compressed,
    gather_rows,
    rows_compressed_bytes_from,
)
from repro.runtime.workload import Iteration, Workload
from repro.sim.runner import profile_workload


def model_cfg(llc_kb=16, id_scale=4096, sort=True):
    system = SystemConfig().scaled(4096)
    system = replace(system, llc=replace(system.llc,
                                         size_bytes=llc_kb * 1024))
    return ModelConfig(system=system, id_scale=id_scale,
                       sort_updates=sort)


def hostile_graph(seed=0, num_vertices=96):
    """Self-loops, duplicate edges, isolated vertices — all kept."""
    rng = np.random.default_rng(seed)
    num_edges = 6 * num_vertices
    src = rng.integers(0, num_vertices // 2, num_edges)  # upper half
    dst = rng.integers(0, num_vertices, num_edges)       # stays isolated
    src[::17] = dst[::17]       # plant self-loops
    src[1::13] = src[::13][:src[1::13].size]  # plant duplicate edges
    dst[1::13] = dst[::13][:dst[1::13].size]
    return CsrGraph.from_edges(num_vertices, src, dst, dedup=False,
                               drop_self_loops=False)


GRAPHS = [
    pytest.param(lambda: community_graph(120, 800, seed_stream="eq-a"),
                 id="community"),
    pytest.param(lambda: hostile_graph(1), id="hostile"),
]

SOURCE_SETS = [
    pytest.param(lambda g: np.arange(g.num_vertices), id="all-active"),
    pytest.param(lambda g: np.empty(0, dtype=np.int64), id="empty"),
    pytest.param(lambda g: np.arange(0, g.num_vertices, 7), id="sparse"),
    pytest.param(lambda g: np.array([0, 3, g.num_vertices - 1]),
                 id="tiny"),
]


@pytest.mark.parametrize("make_graph", GRAPHS)
@pytest.mark.parametrize("make_sources", SOURCE_SETS)
class TestGeneratorEquivalence:
    """Each array-native generator against its scalar oracle."""

    def test_gather_row_stream(self, make_graph, make_sources):
        g = make_graph()
        sources = make_sources(g)
        fast = ta.gather_row_stream(g.offsets, g.neighbors,
                                    g.out_degrees(), sources,
                                    g.num_vertices)
        slow = ta.gather_row_stream_scalar(g.offsets, g.neighbors,
                                           g.out_degrees(), sources,
                                           g.num_vertices)
        np.testing.assert_array_equal(fast, slow)

    def test_push_scatter_lines(self, make_graph, make_sources):
        g = make_graph()
        dsts = gather_rows(g, make_sources(g))
        for dvb in (4, 8, 64, 100):
            np.testing.assert_array_equal(
                ta.push_scatter_lines(dsts, dvb),
                ta.push_scatter_lines_scalar(dsts, dvb))

    def test_ub_bin_stream(self, make_graph, make_sources):
        g = make_graph()
        dsts = gather_rows(g, make_sources(g))
        vals = (dsts.astype(np.uint64) * 3).astype(np.uint32)
        for vpb in (1, 7, 64, 10_000):
            for v in (vals, np.empty(0, dtype=np.uint32)):
                f_ids, f_vals, f_bins = ta.ub_bin_stream(dsts, v, vpb)
                s_ids, s_vals, s_bins = ta.ub_bin_stream_scalar(
                    dsts, v, vpb)
                np.testing.assert_array_equal(f_ids, s_ids)
                np.testing.assert_array_equal(f_vals, s_vals)
                assert f_bins == s_bins

    def test_pull_gather_lines(self, make_graph, make_sources):
        g = make_graph()
        neighbors = gather_rows(g, make_sources(g))
        for svb in (4, 8, 128):
            np.testing.assert_array_equal(
                ta.pull_gather_lines(neighbors, svb),
                ta.pull_gather_lines_scalar(neighbors, svb))

    def test_row_line_bytes(self, make_graph, make_sources):
        g = make_graph()
        sources = make_sources(g)
        for eb in (4, 8):
            assert ta.row_line_bytes(g.offsets, g.num_vertices,
                                     g.num_edges, sources, eb) == \
                ta.row_line_bytes_scalar(g.offsets, g.num_vertices,
                                         g.num_edges, sources, eb)

    def test_scattered_line_bytes(self, make_graph, make_sources):
        g = make_graph()
        sources = make_sources(g)
        for eb in (4, 8):
            assert ta.scattered_line_bytes(sources, eb) == \
                ta.scattered_line_bytes_scalar(sources, eb)


class TestCompressedSizeOracles:
    """Scalar codec size mirrors against the vectorized model sizers."""

    @pytest.mark.parametrize("id_scale", [1, 13, 4096])
    def test_rows_compressed(self, id_scale):
        g = hostile_graph(3)
        sources = np.arange(0, g.num_vertices, 3)
        ids = gather_rows(g, sources)
        degrees = g.out_degrees()[sources]
        assert rows_compressed_bytes_from(ids, degrees, id_scale) == \
            ta.rows_compressed_bytes_scalar(ids, degrees, id_scale)

    @pytest.mark.parametrize("id_scale", [1, 4096])
    @pytest.mark.parametrize("sort", [False, True])
    @pytest.mark.parametrize("n", [1, 5, 31, 32, 33, 257])
    def test_chunked_ids_values(self, id_scale, sort, n):
        rng = np.random.default_rng(n)
        ids = rng.integers(0, 3000, n, dtype=np.uint64).astype(np.uint32)
        for vals in (rng.integers(0, 2 ** 32, n, dtype=np.uint64)
                     .astype(np.uint32),
                     rng.standard_normal(n),
                     np.empty(0, dtype=np.uint32)):
            assert chunked_ids_values_compressed(
                ids, vals, id_scale, sort) == \
                ta.chunked_ids_values_compressed_scalar(
                    ids, vals, id_scale, sort)

    def test_array_compressed(self):
        rng = np.random.default_rng(11)
        for values in (np.empty(0, dtype=np.uint32),
                       np.ones(100, dtype=np.uint32),
                       rng.integers(0, 2 ** 63, 77, dtype=np.uint64),
                       rng.standard_normal(65),
                       np.full(40, -1.5e300)):
            assert array_compressed_bytes(values) == \
                ta.array_compressed_bytes_scalar(values)

    def test_expand_id_scalar_matches_vectorized(self):
        from repro.graph.idspace import expand_ids
        ids = np.arange(0, 5000, 3, dtype=np.uint32)
        for scale in (1, 2, 3, 4096):
            fast = expand_ids(ids, scale)
            slow = [ta.expand_id_scalar(int(v), scale)
                    for v in ids.tolist()]
            assert fast.tolist() == slow


def hostile_workload(app_like="pr"):
    g = hostile_graph(5)
    if app_like == "pr":
        return pagerank.build_workload(g)
    return bfs_app.build_workload(g)


CONFIGS = [
    pytest.param(model_cfg(), id="default"),
    pytest.param(model_cfg(llc_kb=1), id="tiny-llc"),
    pytest.param(model_cfg(id_scale=1), id="id-scale-1"),
    pytest.param(model_cfg(sort=False), id="unsorted"),
]


@pytest.mark.parametrize("cfg", CONFIGS)
@pytest.mark.parametrize("app_like", ["pr", "bfs"])
class TestFullProfileEquivalence:
    """End to end: the stage composition equals the scalar profiler."""

    def test_profiles_bit_identical(self, cfg, app_like):
        workload = hostile_workload(app_like)
        fast = profile_workload(workload, cfg)
        assert len(fast) == len(workload.iterations)
        for profile, iteration in zip(fast[:4], workload.iterations):
            slow = ta.profile_iteration_scalar(workload, iteration, cfg)
            assert profile == slow  # dataclass equality, field by field

    def test_community_graph_profiles(self, cfg, app_like):
        g = community_graph(140, 900, seed_stream=f"eq-{app_like}")
        app = pagerank if app_like == "pr" else bfs_app
        workload = app.build_workload(g)
        fast = profile_workload(workload, cfg)
        for profile, iteration in zip(fast[:3], workload.iterations):
            assert profile == \
                ta.profile_iteration_scalar(workload, iteration, cfg)
