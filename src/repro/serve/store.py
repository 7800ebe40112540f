"""Tiered result store: in-process hot LRU over the on-disk cache.

The serving read path promotes the content-addressed disk cache
(:class:`~repro.jobs.cache.ResultCache`) behind a bounded in-process
dict so repeat traffic never touches the filesystem:

``hot``   an LRU ``OrderedDict`` capped at ``hot_capacity`` entries —
          hits are O(1) and safe to take on the event loop;
``disk``  the content-addressed pickle store, records appended to a
          few segment files (or ``NullCache``) — a hit is *promoted*
          into the hot tier; lookups block on I/O, so the app runs them
          in its compute pool.

The server's computed cells reach disk from the process that priced
them (:func:`~repro.jobs.executor.execute_group` stores each one), and
the server admits them to the hot tier only
(:meth:`~TieredStore.admit`), so its event loop never writes a file.
A server restart warms from disk, and parallel batch runs
(``repro report --cache-dir``) share results with the server
bidirectionally.  All counters — per-tier hits, misses, evictions,
promotions, and the disk tier's corruption drops, entries and segments
— are exposed via :meth:`TieredStore.stats` for ``/stats``, the load
harness, and CI assertions.

The store is built from the server's
:class:`~repro.jobs.cache.StoreConfig` (:meth:`TieredStore.from_config`),
the one store handle every layer takes.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Optional, Union

from repro.jobs.cache import (
    DEFAULT_HOT_CAPACITY,
    NullCache,
    ResultCache,
    StoreConfig,
)

# DEFAULT_HOT_CAPACITY (entries, not bytes: RunMetrics records are a
# few hundred bytes each) lives in repro.jobs.cache with the rest of
# StoreConfig's defaults; re-exported here for compatibility.

#: Absence sentinel: the hot tier may legitimately cache falsy values
#: (``None``, ``0``, ``{}``), so presence checks can never be value
#: comparisons against the entry itself.
_MISS = object()


class TieredStore:
    """Read-through two-tier result store."""

    def __init__(self,
                 disk: Optional[Union[ResultCache, NullCache]] = None,
                 hot_capacity: int = DEFAULT_HOT_CAPACITY) -> None:
        if hot_capacity < 1:
            raise ValueError("hot_capacity must be >= 1")
        self.disk = disk if disk is not None else NullCache()
        self.hot_capacity = hot_capacity
        self._hot: "OrderedDict[str, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.hot_hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.evictions = 0
        self.promotions = 0

    @classmethod
    def from_config(cls, config: StoreConfig) -> "TieredStore":
        """The serving store one :class:`StoreConfig` describes."""
        return cls(disk=config.result_cache(),
                   hot_capacity=config.hot_capacity)

    def get(self, key: str, default: Any = None) -> Optional[Any]:
        """Hot tier, then disk (promoting); ``default`` on miss.

        The hot tier distinguishes a cached falsy value (even ``None``)
        from absence, so such entries hit instead of recomputing
        forever.  The disk tier keeps the jobs-cache contract where
        ``None`` means miss — a cached ``None`` therefore only ever
        hits hot.
        """
        value = self.get_hot(key, _MISS)
        if value is not _MISS:
            return value
        value = self.disk.get(key)
        with self._lock:
            if value is None:
                self.misses += 1
                return default
            self.disk_hits += 1
            self.promotions += 1
            self._admit(key, value)
        return value

    def admit(self, key: str, value: Any) -> None:
        """Hot tier only, for a value whose disk entry the process that
        computed it has already written."""
        with self._lock:
            self._admit(key, value)

    def stats(self) -> Dict[str, object]:
        """Both tiers' counters plus the disk store's own stats."""
        counters = self.counters()
        counters["disk"] = self.disk.stats()
        return counters

    def counters(self) -> Dict[str, object]:
        """This process's tier counters — no I/O, event-loop safe.
        :meth:`stats` adds the disk store's, which lists its files."""
        with self._lock:
            counters = {
                "hot_entries": len(self._hot),
                "hot_capacity": self.hot_capacity,
                "hot_hits": self.hot_hits,
                "disk_hits": self.disk_hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "promotions": self.promotions,
            }
        lookups = (counters["hot_hits"] + counters["disk_hits"]
                   + counters["misses"])
        counters["hit_rate"] = (
            (counters["hot_hits"] + counters["disk_hits"]) / lookups
            if lookups else 0.0)
        return counters

    # -- hot-tier internals ------------------------------------------------

    def get_hot(self, key: str, default: Any = None) -> Optional[Any]:
        """Hot-tier-only probe — O(1), no I/O, event-loop safe.

        A miss here is *not* counted as a store miss: the caller falls
        through to :meth:`get`, which settles the hit/miss verdict.
        Presence is tracked with a sentinel, so cached falsy values
        (including ``None``) count as hits.
        """
        with self._lock:
            value = self._hot.get(key, _MISS)
            if value is _MISS:
                return default
            self._hot.move_to_end(key)
            self.hot_hits += 1
            return value

    def _admit(self, key: str, value: Any) -> None:
        """Insert into the hot tier, evicting LRU entries (lock held)."""
        self._hot[key] = value
        self._hot.move_to_end(key)
        while len(self._hot) > self.hot_capacity:
            self._hot.popitem(last=False)
            self.evictions += 1
