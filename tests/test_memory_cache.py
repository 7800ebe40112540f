"""Unit + property tests for the cache models.

:class:`FastLruCache` is the model's cache; the exact set-associative
cache (LRU and DRRIP) is the reference it is held against, and lives
in :mod:`tests.oracles.memory`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CacheConfig
from repro.memory import FastLruCache
from tests.oracles.memory import SetAssocCache, make_cache


def small_cache(ways=4, lines=16, replacement="lru"):
    return SetAssocCache(CacheConfig(lines * 64, ways,
                                     replacement=replacement))


class TestSetAssocLru:
    def test_first_access_misses(self):
        cache = small_cache()
        assert cache.access(1) is False
        assert cache.stats.misses == 1

    def test_second_access_hits(self):
        cache = small_cache()
        cache.access(1)
        assert cache.access(1) is True
        assert cache.stats.hits == 1

    def test_lru_eviction_order(self):
        # 1 set x 4 ways: fill, touch oldest, insert new -> second-oldest out
        cache = SetAssocCache(CacheConfig(4 * 64, 4))
        for line in [0, 1, 2, 3]:
            cache.access(line)
        cache.access(0)         # 0 becomes MRU; LRU is 1
        cache.access(4)         # evicts 1
        assert cache.contains(0)
        assert not cache.contains(1)
        assert cache.contains(4)

    def test_set_isolation(self):
        cache = small_cache(ways=1, lines=4)  # 4 sets, direct-mapped
        cache.access(0)
        cache.access(1)
        assert cache.contains(0)   # different sets don't conflict
        cache.access(4)            # same set as 0 -> evicts 0
        assert not cache.contains(0)

    def test_writeback_counted_on_dirty_eviction(self):
        cache = SetAssocCache(CacheConfig(1 * 64, 1))
        cache.access(0, write=True)
        cache.access(1)
        assert cache.stats.writebacks == 1
        cache.access(2)
        assert cache.stats.writebacks == 1  # clean eviction

    def test_invalidate(self):
        cache = small_cache()
        cache.access(5)
        cache.invalidate(5)
        assert not cache.contains(5)
        cache.invalidate(5)  # idempotent

    def test_invalidate_counts_eviction(self):
        cache = small_cache()
        cache.access(5)
        cache.invalidate(5)
        assert cache.stats.evictions == 1
        assert cache.stats.writebacks == 0  # clean line: no writeback
        cache.invalidate(5)  # second call finds nothing
        assert cache.stats.evictions == 1

    def test_invalidate_dirty_counts_writeback(self):
        """A dirty line dropped by invalidate must flush, not vanish."""
        cache = small_cache()
        cache.access(5, write=True)
        cache.invalidate(5)
        assert cache.stats.writebacks == 1
        assert cache.stats.evictions == 1
        cache.invalidate(5)  # idempotent: dirty bit was cleared
        assert cache.stats.writebacks == 1

    def test_invalidate_missing_line_counts_nothing(self):
        cache = small_cache()
        cache.invalidate(123)
        assert cache.stats.evictions == 0
        assert cache.stats.writebacks == 0

    def test_contains_has_no_side_effects(self):
        cache = small_cache()
        cache.access(3)
        hits, misses = cache.stats.hits, cache.stats.misses
        cache.contains(3)
        cache.contains(99)
        assert (cache.stats.hits, cache.stats.misses) == (hits, misses)


class TestDrrip:
    def test_basic_hit_miss(self):
        cache = small_cache(replacement="drrip")
        assert cache.access(7) is False
        assert cache.access(7) is True

    def test_fills_all_ways_before_evicting(self):
        cache = SetAssocCache(CacheConfig(4 * 64, 4, replacement="drrip"))
        for line in range(4):
            cache.access(line)
        assert cache.stats.evictions == 0
        cache.access(4)
        assert cache.stats.evictions == 1

    def test_scan_resistance_vs_lru(self):
        """DRRIP keeps a reused working set alive through a one-shot scan
        better than LRU (the reason the paper's LLC uses it)."""
        config = CacheConfig(256 * 64, 16, replacement="drrip")
        drrip = SetAssocCache(config)
        lru = SetAssocCache(CacheConfig(256 * 64, 16))
        hot = list(range(128))
        scan = list(range(10_000, 10_000 + 4096))

        def run(cache):
            for _ in range(20):
                for line in hot:
                    cache.access(line)
            for line in scan:
                cache.access(line)
            hits = 0
            for line in hot:
                hits += cache.access(line)
            return hits

        assert run(drrip) >= run(lru)


class TestFastLru:
    def test_capacity_enforced(self):
        cache = FastLruCache(4)
        for line in range(5):
            cache.access(line)
        assert not cache.contains(0)
        assert cache.contains(4)

    def test_matches_fully_assoc_reference(self):
        """FastLruCache implements exact fully-associative LRU."""
        rng = np.random.default_rng(0)
        trace = rng.integers(0, 64, 2000).tolist()
        cache = FastLruCache(32)
        reference = []
        expected_hits = 0
        for line in trace:
            if line in reference:
                expected_hits += 1
                reference.remove(line)
            elif len(reference) == 32:
                reference.pop(0)
            reference.append(line)
        for line in trace:
            cache.access(line)
        assert cache.stats.hits == expected_hits

    def test_lru_eviction_order(self):
        cache = FastLruCache(4)
        for line in [0, 1, 2, 3]:
            cache.access(line)
        cache.access(0)         # 0 becomes MRU; LRU is 1
        cache.access(4)         # evicts 1
        assert cache.contains(0)
        assert not cache.contains(1)
        assert cache.contains(4)

    def test_writeback_counted_on_dirty_eviction(self):
        cache = FastLruCache(1)
        cache.access(0, write=True)
        cache.access(1)
        assert (cache.stats.evictions, cache.stats.writebacks) == (1, 1)
        cache.access(2)
        assert (cache.stats.evictions, cache.stats.writebacks) == (2, 1)

    def test_contains_has_no_side_effects(self):
        cache = FastLruCache(4)
        cache.access(3)
        cache.contains(3)
        cache.contains(99)
        assert (cache.stats.hits, cache.stats.misses) == (0, 1)

    def test_flush_dirty(self):
        cache = FastLruCache(8)
        cache.access(1, write=True)
        cache.access(2)
        assert cache.flush_dirty() == 1
        assert cache.flush_dirty() == 0

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            FastLruCache(0)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(0, 40), min_size=1, max_size=300),
           st.integers(1, 32))
    def test_hits_bounded_by_reuse(self, trace, capacity):
        """Hits can never exceed accesses minus distinct lines."""
        cache = FastLruCache(capacity)
        for line in trace:
            cache.access(line)
        assert cache.stats.hits <= len(trace) - len(set(trace))
        assert cache.stats.hits + cache.stats.misses == len(trace)


class TestFactory:
    def test_fast_flag(self):
        config = CacheConfig(64 * 64, 4)
        assert isinstance(make_cache(config, fast=True), FastLruCache)
        assert isinstance(make_cache(config, fast=False), SetAssocCache)


class TestCacheConfigValidation:
    def test_bad_sizes_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig(0, 4)
        with pytest.raises(ValueError):
            CacheConfig(1024, 0)
        with pytest.raises(ValueError):
            CacheConfig(1024, 4, line_bytes=48)

    def test_geometry(self):
        config = CacheConfig(64 * 1024, 8)
        assert config.num_lines == 1024
        assert SetAssocCache(config).num_sets == 128
