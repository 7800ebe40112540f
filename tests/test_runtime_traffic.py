"""Tests for the per-iteration traffic profile and its primitives."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import pagerank, bfs as bfs_app
from repro.config import SystemConfig
from repro.graph import community_graph
from repro.runtime import (
    ModelConfig,
    chunked_ids_values_compressed,
    gather_rows,
    rows_compressed_bytes,
)
from repro.runtime.traffic import _delta_sizes_grouped
from repro.sim.runner import profile_workload
from repro.compression import DeltaCodec
from tests.oracles.traffic import (
    delta_group_size_scalar,
    lru_scatter_oracle,
    phi_coalesce_oracle,
)


def cfg(llc_kb=16):
    from dataclasses import replace
    system = SystemConfig().scaled(4096)
    system = replace(system, llc=replace(system.llc,
                                         size_bytes=llc_kb * 1024))
    return ModelConfig(system=system, id_scale=4096)


def first_profile(workload, model_cfg):
    """The stage composition's profile of the first iteration."""
    return profile_workload(workload, model_cfg)[0]


class TestGatherRows:
    def test_all_active_is_neighbors(self):
        g = community_graph(100, 600, seed_stream="traffic-1")
        out = gather_rows(g, np.arange(100))
        assert np.array_equal(out, g.neighbors)

    def test_subset_matches_row_concat(self):
        g = community_graph(100, 600, seed_stream="traffic-2")
        subset = np.array([3, 17, 42], dtype=np.int64)
        out = gather_rows(g, subset)
        expected = np.concatenate([g.row(v) for v in subset])
        assert np.array_equal(out, expected)

    def test_empty_sources(self):
        g = community_graph(50, 300, seed_stream="traffic-3")
        assert gather_rows(g, np.empty(0, dtype=np.int64)).size == 0


class TestCompressedSizes:
    def test_rows_compressed_matches_codec(self):
        """The grouped vectorized path must equal per-row DeltaCodec."""
        g = community_graph(120, 900, seed_stream="traffic-4")
        from repro.graph.idspace import expand_ids
        codec = DeltaCodec()
        expected = 0
        for v in range(g.num_vertices):
            row = expand_ids(g.row(v), 4096).astype(np.uint64)
            if row.size:
                expected += min(len(codec.encode(row)), 4 * row.size + 1)
        got = rows_compressed_bytes(g, np.arange(120), 4096)
        assert got == expected

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1,
                             max_size=12), min_size=1, max_size=8))
    def test_grouped_delta_sizes_match_encoder(self, groups):
        """Each group's size is ``len(DeltaCodec.encode(group))``, except
        where the first element has bit 63 set: the pricer wraps that
        zigzag into 64 bits, as ``delta_group_size_scalar`` mirrors,
        where the encoder spends 9 bytes on it."""
        values = np.array([v for g in groups for v in g], dtype=np.uint64)
        starts = np.cumsum([0] + [len(g) for g in groups[:-1]])
        sizes = _delta_sizes_grouped(values, starts).tolist()
        assert sizes == [delta_group_size_scalar(g) for g in groups]
        codec = DeltaCodec()
        for size, group in zip(sizes, groups):
            encoded = len(codec.encode(np.array(group, dtype=np.uint64)))
            if group[0] < 2 ** 63:
                assert size == encoded
            else:
                first = delta_group_size_scalar(group[:1])
                assert size == encoded - 9 + first

    def test_chunked_updates_sorting_helps(self):
        rng = np.random.default_rng(0)
        ids = rng.integers(0, 3000, 640, dtype=np.uint64).astype(np.uint32)
        vals = np.zeros(640, dtype=np.uint32)
        plain = chunked_ids_values_compressed(ids, vals, 4096, sort=False)
        sorted_ = chunked_ids_values_compressed(ids, vals, 4096, sort=True)
        assert sorted_ < plain

    def test_chunked_updates_empty(self):
        assert chunked_ids_values_compressed(
            np.empty(0, dtype=np.uint32), np.empty(0, dtype=np.uint32),
            4096, sort=True) == 0

    def test_constant_payload_compresses_heavily(self):
        """DC-style: constant payload values nearly vanish."""
        rng = np.random.default_rng(1)
        ids = rng.integers(0, 3000, 320, dtype=np.uint64).astype(np.uint32)
        ones = np.ones(320, dtype=np.uint32)
        randv = rng.integers(0, 2 ** 32, 320,
                             dtype=np.uint64).astype(np.uint32)
        small = chunked_ids_values_compressed(ids, ones, 4096, sort=True)
        big = chunked_ids_values_compressed(ids, randv, 4096, sort=True)
        assert small < 0.6 * big


class TestCacheReplays:
    def test_lru_scatter_counts(self):
        lines = np.array([0, 1, 0, 2, 3, 0], dtype=np.int64)
        misses, writebacks = lru_scatter_oracle(lines, capacity=2)
        # 0 miss, 1 miss, 0 hit, 2 miss (evict 1), 3 miss (evict 0),
        # 0 miss (evict 2): 5 misses; evictions 3 + final flush 2.
        assert misses == 5
        assert writebacks == 5

    def test_lru_scatter_all_hits_when_fitting(self):
        lines = np.tile(np.arange(4, dtype=np.int64), 10)
        misses, writebacks = lru_scatter_oracle(lines, capacity=8)
        assert misses == 4
        assert writebacks == 4  # final flush only

    def test_phi_coalesces_same_destination(self):
        dsts = np.array([5, 5, 5, 5], dtype=np.int64)
        vals = np.arange(4, dtype=np.uint32)
        ids, out_vals, lines = phi_coalesce_oracle(dsts, vals, 4, 16)
        assert ids.tolist() == [5]       # four updates coalesced to one
        assert lines == 1

    def test_phi_distinct_dsts_in_one_line_all_spill(self):
        dsts = np.array([0, 1, 2, 3], dtype=np.int64)
        ids, _vals, lines = phi_coalesce_oracle(
            dsts, np.arange(4, dtype=np.uint32), 4, 16)
        assert sorted(ids.tolist()) == [0, 1, 2, 3]
        assert lines == 1  # all share a line (16 x 4B per line)

    def test_phi_eviction_spills_midstream(self):
        # Capacity 1 line: alternating far-apart lines evict each other.
        dsts = np.array([0, 100, 0, 100], dtype=np.int64)
        ids, _vals, lines = phi_coalesce_oracle(
            dsts, np.arange(4, dtype=np.uint32), 4, 1)
        assert lines == 4
        assert ids.size == 4


class TestIterationProfile:
    def test_all_active_pagerank_profile(self):
        g = community_graph(400, 3000, seed_stream="traffic-5")
        workload = pagerank.build_workload(g)
        profile = first_profile(workload, cfg())
        assert profile.num_edges == g.num_edges
        assert profile.num_sources == g.num_vertices
        assert profile.frontier_bytes == 0
        assert profile.offsets_bytes >= (g.num_vertices + 1) * 8
        assert profile.neigh_bytes_compressed <= profile.neigh_bytes
        assert profile.update_bytes_compressed <= 1.1 * profile.update_bytes
        assert profile.push_dest_misses > 0

    def test_frontier_app_profile(self):
        g = community_graph(400, 3000, seed_stream="traffic-6")
        workload = bfs_app.build_workload(g)
        profiles = profile_workload(workload, cfg())
        assert len(profiles) == len(workload.iterations)
        mid = profiles[min(1, len(profiles) - 1)]
        assert mid.frontier_bytes > 0
        # Scattered source data cannot be compressed (Sec II-C).
        assert mid.src_bytes_compressed == mid.src_bytes

    def test_bigger_cache_never_increases_misses(self):
        g = community_graph(600, 5000, seed_stream="traffic-7")
        workload = pagerank.build_workload(g)
        small = first_profile(workload, cfg(llc_kb=4))
        big = first_profile(workload, cfg(llc_kb=64))
        assert big.push_dest_misses <= small.push_dest_misses
        assert big.phi_spilled_updates <= small.phi_spilled_updates

    def test_sorted_updates_never_larger(self):
        g = community_graph(500, 4000, seed_stream="traffic-8")
        workload = pagerank.build_workload(g)
        p = first_profile(workload, cfg())
        assert p.update_bytes_compressed <= \
            p.update_bytes_compressed_unsorted

    def test_num_bins_scale_with_vertices(self):
        g = community_graph(1000, 5000, seed_stream="traffic-9")
        workload = pagerank.build_workload(g)
        p = first_profile(workload, cfg(llc_kb=4))
        assert p.num_bins >= 2
