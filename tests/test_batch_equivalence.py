"""Replay kernels vs scalar LRU: the contract of the vectorized replays.

The pricer's replay stage never walks a cache access by access: it runs
the offline LRU kernels of :mod:`repro.memory.batch` and
:mod:`repro.runtime.traffic`.  Each must be *bit-identical* to a scalar
LRU walk — same hit masks, same miss counts, same spill streams.  The
batch drivers of :mod:`tests.oracles.memory` stretch the hit-mask
kernel to full cache state (CacheStats, dirty bits, recency order, a
whole hierarchy), so the same contract is checked on everything
observable.  These property-style tests drive randomized (line, write)
streams through both sides and compare.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CacheConfig, SystemConfig
from repro.memory import FastLruCache
from repro.memory.batch import lru_hit_mask
from repro.runtime.traffic import lru_scatter_replay, phi_coalesce_replay
from tests.oracles.memory import (
    SetAssocCache,
    access_many,
    hierarchy_access_many,
    make_hierarchy,
    replay_lru,
)
from tests.oracles.traffic import lru_scatter_oracle, phi_coalesce_oracle


def scalar_reference(cache, lines, writes):
    return np.array([cache.access(line, write) for line, write
                     in zip(lines.tolist(), writes.tolist())],
                    dtype=bool)


def scalar_hit_mask(lines, capacity):
    """Hit mask of a cold fully-associative LRU walked access by access."""
    cache = FastLruCache(capacity)
    return np.array([cache.access(line) for line in lines.tolist()],
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
        got = access_many(batch, lines, writes)
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
        got = access_many(batch, lines, writes)
        assert np.array_equal(expected, got)
        assert_same_state(scalar, batch)

    def test_large_batch_takes_vectorized_path(self):
        """A long over-capacity stream through the offline replay still
        matches, including flush_dirty afterwards."""
        rng = np.random.default_rng(42)
        lines = rng.integers(0, 300, 5000)
        writes = rng.random(5000) < 0.3
        scalar, batch = FastLruCache(128), FastLruCache(128)
        expected = scalar_reference(scalar, lines, writes)
        got = access_many(batch, lines, writes)
        assert np.array_equal(expected, got)
        assert_same_state(scalar, batch)
        assert scalar.flush_dirty() == batch.flush_dirty()

    def test_scalar_writes_broadcast(self):
        batch = FastLruCache(8)
        hits = access_many(batch, np.array([1, 2, 1]), True)
        assert hits.tolist() == [False, False, True]
        assert batch.flush_dirty() == 2

    def test_empty_batch(self):
        cache = FastLruCache(4)
        assert access_many(cache, np.array([], dtype=np.int64)).size == 0
        assert cache.stats.hits + cache.stats.misses == 0


class TestSetAssocBatch:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 40), st.booleans()),
                    max_size=200),
           st.integers(1, 12))
    def test_matches_scalar(self, stream, ways):
        """With one set, the exact set-associative LRU is the
        fully-associative LRU the batch replay computes."""
        scalar = SetAssocCache(CacheConfig(ways * 64, ways))
        assert scalar.num_sets == 1
        batch = FastLruCache(ways)
        lines = np.array([line for line, _ in stream], dtype=np.int64)
        writes = np.array([write for _, write in stream], dtype=bool)
        expected = scalar_reference(scalar, lines, writes)
        got = access_many(batch, lines, writes)
        assert np.array_equal(expected, got)
        assert vars(scalar.stats) == vars(batch.stats)
        resident = {line: dirty for line, dirty
                    in zip(scalar._tags[0], scalar._dirty[0])
                    if line != -1}
        assert dict(batch._lines) == resident


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

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 50), max_size=400),
           st.integers(1, 32))
    def test_hit_mask_matches_scalar_lru(self, trace, capacity):
        lines = np.array(trace, dtype=np.int64)
        assert np.array_equal(lru_hit_mask(lines, capacity),
                              scalar_hit_mask(lines, capacity))

    def test_hit_mask_long_reuse_paths(self):
        """Over-capacity traces whose reuses outrun the capacity: few
        such reuses take the per-window count, many take the sequential
        pass.  Both must match the scalar walk."""
        rng = np.random.default_rng(3)
        # Line 0 comes back past 100 accesses to 10 lines (a hit), then
        # 100 lines come back past 100 distinct lines (misses).
        few = np.concatenate([[0], np.tile(np.arange(1, 11), 10), [0],
                              np.arange(100), np.arange(100),
                              np.arange(1000, 3000)])
        many = rng.integers(0, 3000, 20000)
        for lines, capacity in ((few, 64), (many, 1000), (many, 80)):
            lines = lines.astype(np.int64)
            assert np.array_equal(lru_hit_mask(lines, capacity),
                                  scalar_hit_mask(lines, capacity))

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
        scalar = make_hierarchy(config, fast=fast)
        batch = make_hierarchy(config, fast=fast)
        rng = np.random.default_rng(9)
        lines = rng.integers(0, 1500, 2500)
        expected = np.array(
            [scalar.access(int(line) * 64, 64, core=1,
                           data_class="other",
                           start_level=start_level)
             for line in lines])
        got = hierarchy_access_many(batch, lines, core=1,
                                    data_class="other",
                                    start_level=start_level)
        assert np.array_equal(expected, got)
        assert vars(scalar.llc.stats) == vars(batch.llc.stats)
        assert vars(scalar.l2[1].stats) == vars(batch.l2[1].stats)
        assert scalar.traffic.by_class() == batch.traffic.by_class()
