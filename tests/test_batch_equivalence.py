"""Batch-vs-scalar equivalence: the contract of the vectorized models.

The vectorized replay kernels and ``access_many`` batch APIs must be
*bit-identical* to the scalar models — same hit masks, same CacheStats,
same final cache contents (lines, dirty bits, recency order), same spill
streams.  These property-style tests drive randomized (line, write)
streams through both paths and compare everything observable.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CacheConfig, SystemConfig
from repro.memory import FastLruCache, MemoryHierarchy, SetAssocCache
from repro.memory.batch import lru_hit_mask, replay_lru
from repro.runtime.traffic import lru_scatter_replay, phi_coalesce_replay
from repro.runtime.traffic_array import (
    lru_scatter_oracle,
    phi_coalesce_oracle,
)


def scalar_reference(cache, lines, writes):
    return np.array([cache.access(line, write) for line, write
                     in zip(lines.tolist(), writes.tolist())],
                    dtype=bool)


def assert_same_state(a: FastLruCache, b: FastLruCache) -> None:
    assert vars(a.stats) == vars(b.stats)
    assert list(a._lines.items()) == list(b._lines.items())


class TestFastLruBatch:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 30), st.booleans()),
                    max_size=250),
           st.integers(1, 24))
    def test_matches_scalar(self, stream, capacity):
        lines = np.array([line for line, _ in stream], dtype=np.int64)
        writes = np.array([write for _, write in stream], dtype=bool)
        scalar, batch = FastLruCache(capacity), FastLruCache(capacity)
        expected = scalar_reference(scalar, lines, writes)
        got = batch.access_many(lines, writes)
        assert np.array_equal(expected, got)
        assert_same_state(scalar, batch)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 20), st.booleans()),
                    max_size=120),
           st.lists(st.tuples(st.integers(0, 20), st.booleans()),
                    max_size=120),
           st.integers(1, 12))
    def test_matches_scalar_with_warm_state(self, warm, stream,
                                            capacity):
        """A batch issued against a warm cache continues its history."""
        scalar, batch = FastLruCache(capacity), FastLruCache(capacity)
        for line, write in warm:
            scalar.access(line, write)
            batch.access(line, write)
        lines = np.array([line for line, _ in stream], dtype=np.int64)
        writes = np.array([write for _, write in stream], dtype=bool)
        expected = scalar_reference(scalar, lines, writes)
        got = batch.access_many(lines, writes)
        assert np.array_equal(expected, got)
        assert_same_state(scalar, batch)

    def test_large_batch_takes_vectorized_path(self):
        """Past the small-batch cutoff the offline replay is used and
        still matches, including flush_dirty afterwards."""
        rng = np.random.default_rng(42)
        lines = rng.integers(0, 300, 5000)
        writes = rng.random(5000) < 0.3
        scalar, batch = FastLruCache(128), FastLruCache(128)
        expected = scalar_reference(scalar, lines, writes)
        got = batch.access_many(lines, writes)
        assert np.array_equal(expected, got)
        assert_same_state(scalar, batch)
        assert scalar.flush_dirty() == batch.flush_dirty()

    def test_scalar_writes_broadcast(self):
        batch = FastLruCache(8)
        hits = batch.access_many(np.array([1, 2, 1]), True)
        assert hits.tolist() == [False, False, True]
        assert batch.flush_dirty() == 2

    def test_empty_batch(self):
        cache = FastLruCache(4)
        assert cache.access_many(np.array([], dtype=np.int64)).size == 0
        assert cache.stats.accesses == 0


class TestSetAssocBatch:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 40), st.booleans()),
                    max_size=200),
           st.sampled_from(["lru", "drrip"]))
    def test_matches_scalar(self, stream, replacement):
        config = CacheConfig(8 * 64, 4, replacement=replacement)
        scalar = SetAssocCache(config)
        batch = SetAssocCache(config)
        lines = np.array([line for line, _ in stream], dtype=np.int64)
        writes = np.array([write for _, write in stream], dtype=bool)
        expected = scalar_reference(scalar, lines, writes)
        got = batch.access_many(lines, writes)
        assert np.array_equal(expected, got)
        assert vars(scalar.stats) == vars(batch.stats)
        assert scalar._tags == batch._tags
        assert scalar._dirty == batch._dirty


class TestReplayKernels:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 50), max_size=400),
           st.integers(1, 32))
    def test_lru_scatter_replay(self, trace, capacity):
        lines = np.array(trace, dtype=np.int64)
        assert lru_scatter_replay(lines, capacity) == \
            lru_scatter_oracle(lines, capacity)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 60), max_size=300),
           st.integers(1, 16), st.sampled_from([4, 8]),
           st.booleans())
    def test_phi_coalesce_replay(self, dsts, capacity, dvb,
                                 with_values):
        dsts = np.array(dsts, dtype=np.int64)
        values = (np.arange(dsts.size, dtype=np.uint32) * 7 + 3
                  if with_values else np.empty(0))
        ids_a, vals_a, lines_a = phi_coalesce_oracle(dsts, values, dvb,
                                                     capacity)
        ids_b, vals_b, lines_b = phi_coalesce_replay(dsts, values, dvb,
                                                     capacity)
        assert np.array_equal(ids_a, ids_b)
        assert np.array_equal(vals_a, vals_b)
        assert ids_a.dtype == ids_b.dtype
        assert vals_a.dtype == vals_b.dtype
        assert lines_a == lines_b

    def test_scatter_replay_realistic_stream(self):
        """A graph-shaped stream (sorted runs + hub skew) — the shape
        the profiler actually replays."""
        rng = np.random.default_rng(0)
        rows = [np.sort(rng.zipf(1.3, rng.integers(1, 60)) % 2000)
                for _ in range(400)]
        lines = np.concatenate(rows).astype(np.int64) // 16
        for capacity in (8, 64, 113):
            assert lru_scatter_replay(lines, capacity) == \
                lru_scatter_oracle(lines, capacity)

    def test_hit_mask_cold_lru(self):
        lines = np.array([1, 2, 3, 1, 4, 2], dtype=np.int64)
        # capacity 2: 1,2 miss; 3 misses (evict 1); 1 misses (evict 2);
        # 4 misses (evict 3); 2 misses.
        assert lru_hit_mask(lines, 2).tolist() == [False] * 6
        # capacity 3: reuse of 1 hits; 4 then evicts 2, so 2 misses.
        assert lru_hit_mask(lines, 3).tolist() == \
            [False, False, False, True, False, False]
        # capacity 4: both reuses hit.
        assert lru_hit_mask(lines, 4).tolist() == \
            [False, False, False, True, False, True]


class TestReplayLruState:
    def test_resident_order_is_recency(self):
        lines = np.array([5, 6, 7, 5], dtype=np.int64)
        writes = np.array([True, False, False, False])
        replay = replay_lru(lines, writes, capacity=8)
        assert replay.resident_lines.tolist() == [6, 7, 5]
        assert replay.resident_dirty.tolist() == [False, False, True]
        assert replay.misses == 3 and replay.evictions == 0

    def test_dirty_eviction_counts_writeback(self):
        lines = np.array([1, 2, 3], dtype=np.int64)
        writes = np.array([True, False, False])
        replay = replay_lru(lines, writes, capacity=2)
        assert replay.evictions == 1 and replay.writebacks == 1


class TestHierarchyBatch:
    @pytest.mark.parametrize("fast", [True, False])
    @pytest.mark.parametrize("start_level", ["l1", "l2", "llc"])
    def test_matches_scalar_walk(self, fast, start_level):
        config = SystemConfig().scaled(4096)
        scalar = MemoryHierarchy(config, fast=fast)
        batch = MemoryHierarchy(config, fast=fast)
        rng = np.random.default_rng(9)
        lines = rng.integers(0, 1500, 2500)
        expected = np.array(
            [scalar.access(int(line) * 64, 64, core=1,
                           data_class="other",
                           start_level=start_level)
             for line in lines])
        got = batch.access_many(lines, core=1, data_class="other",
                                start_level=start_level)
        assert np.array_equal(expected, got)
        assert vars(scalar.llc.stats) == vars(batch.llc.stats)
        assert vars(scalar.l2[1].stats) == vars(batch.l2[1].stats)
        assert scalar.dram.traffic.by_class() == \
            batch.dram.traffic.by_class()
        assert (scalar.dram.row_hits, scalar.dram.row_misses) == \
            (batch.dram.row_hits, batch.dram.row_misses)
        assert scalar.dram._open_rows == batch.dram._open_rows
