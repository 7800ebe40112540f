"""The tiered result store (repro.serve.store)."""

import pytest

from repro.jobs import NullCache, ResultCache
from repro.serve import TieredStore

KEY_A = "aa" * 32
KEY_B = "bb" * 32
KEY_C = "cc" * 32


class TestReadThrough:
    def test_miss_then_admit_then_hot_hit(self, tmp_path):
        store = TieredStore(ResultCache(str(tmp_path)))
        assert store.get(KEY_A) is None
        assert store.misses == 1
        store.admit(KEY_A, {"cycles": 7})
        assert store.get(KEY_A) == {"cycles": 7}
        assert store.hot_hits == 1
        assert store.disk_hits == 0  # hot tier answered

    def test_disk_hit_promotes_to_hot(self, tmp_path):
        ResultCache(str(tmp_path)).put(KEY_A, [1, 2])  # another process
        store = TieredStore(ResultCache(str(tmp_path)))
        assert store.get(KEY_A) == [1, 2]
        assert (store.disk_hits, store.promotions) == (1, 1)
        # The promoted entry now answers from memory.
        assert store.get(KEY_A) == [1, 2]
        assert store.hot_hits == 1

    def test_get_hot_probe_does_not_count_misses(self):
        store = TieredStore()
        assert store.get_hot(KEY_A) is None
        assert store.misses == 0
        store.admit(KEY_A, 1)
        assert store.get_hot(KEY_A) == 1
        assert store.hot_hits == 1


class TestFalsyValues:
    """A cached falsy value must hit, not read as a miss forever."""

    @pytest.mark.parametrize("value", [None, 0, 0.0, False, "", {}, []])
    def test_falsy_round_trip_hits_hot(self, value):
        store = TieredStore()
        store.admit(KEY_A, value)
        assert store.get_hot(KEY_A) == value
        assert store.get(KEY_A) == value
        assert store.hot_hits == 2
        assert store.misses == 0

    def test_absence_still_reports_default(self):
        store = TieredStore()
        sentinel = object()
        assert store.get_hot(KEY_A, sentinel) is sentinel
        assert store.get(KEY_A, sentinel) is sentinel
        assert store.misses == 1  # only the full get counts a miss

    def test_none_value_distinguishable_via_default(self):
        store = TieredStore()
        store.admit(KEY_A, None)
        sentinel = object()
        assert store.get_hot(KEY_A, sentinel) is None  # a real hit
        assert store.hot_hits == 1

    def test_falsy_entry_tracks_lru_recency(self):
        store = TieredStore(hot_capacity=2)
        store.admit(KEY_A, 0)
        store.admit(KEY_B, 2)
        assert store.get_hot(KEY_A) == 0  # refreshes A's recency
        store.admit(KEY_C, 3)  # so B is the eviction victim
        assert store.get_hot(KEY_A) == 0
        assert store.get_hot(KEY_B) is None


class TestEviction:
    def test_lru_eviction_at_capacity(self, tmp_path):
        disk = ResultCache(str(tmp_path))
        store = TieredStore(disk, hot_capacity=2)
        for key, value in ((KEY_A, 1), (KEY_B, 2), (KEY_C, 3)):
            disk.put(key, value)  # as the pricing process does
            store.admit(key, value)  # C evicts A, the least recent
        assert store.evictions == 1
        assert store.get_hot(KEY_A) is None
        # ... but it is still on disk: read-through recovers.
        assert store.get(KEY_A) == 1
        assert store.disk_hits == 1

    def test_hot_hit_refreshes_recency(self):
        store = TieredStore(hot_capacity=2)
        store.admit(KEY_A, 1)
        store.admit(KEY_B, 2)
        assert store.get_hot(KEY_A) == 1  # A becomes most recent
        store.admit(KEY_C, 3)  # so B is the one evicted
        assert store.get_hot(KEY_A) == 1
        assert store.get_hot(KEY_B) is None

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            TieredStore(hot_capacity=0)


class TestCacheInterface:
    def test_null_disk_default(self):
        store = TieredStore()
        assert isinstance(store.disk, NullCache)
        store.admit(KEY_A, 1)
        assert store.get(KEY_A) == 1  # served by the hot tier alone

    def test_stats_shape(self, tmp_path):
        disk = ResultCache(str(tmp_path))
        store = TieredStore(disk, hot_capacity=8)
        disk.put(KEY_A, 1)
        store.admit(KEY_A, 1)
        store.get(KEY_A)
        store.get(KEY_B)
        stats = store.stats()
        assert stats["hot_entries"] == 1
        assert stats["hot_capacity"] == 8
        assert stats["hit_rate"] == 0.5
        assert stats["disk"]["entries"] == 1
        assert stats["disk"]["corrupt_dropped"] == 0
