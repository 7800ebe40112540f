"""Reference cache models and batch drivers for the memory suites.

The model runs one cache model: a fully-associative LRU
(:class:`~repro.memory.cache.FastLruCache`) per level, walked access by
access by the functional engines and replayed offline by the pricer's
kernels in :mod:`repro.memory.batch`.  This module holds what the
memory suites check those two against:

* :class:`SetAssocCache` — an exact set-associative cache with true LRU
  or DRRIP replacement (SRRIP/BRRIP with set dueling, as in the paper's
  32 MB LLC).  With one set its LRU is fully-associative LRU, the model
  the engines and the pricer use; :func:`make_hierarchy` builds a
  :class:`~repro.memory.hierarchy.MemoryHierarchy` on it.
* :func:`replay_lru` and the ``access_many`` drivers — a whole-stream
  batch replay built on the pricer's kernels (:func:`lru_hit_mask`,
  :func:`previous_occurrence`, the run collapse), which reconstructs
  stats, dirty bits and recency order too.  The batch-equivalence suite
  holds it bit-identical to the scalar :class:`FastLruCache` walk and,
  level by level, to the hierarchy's scalar walk.
"""

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np

from repro.config import CacheConfig, SystemConfig
from repro.memory import LINE_BYTES, CacheStats, FastLruCache, \
    MemoryHierarchy
from repro.memory.batch import _collapse_runs, lru_hit_mask, \
    previous_occurrence

# DRRIP constants (2-bit RRPV, 32 dueling sets per policy, 10-bit PSEL).
_RRPV_BITS = 2
_RRPV_MAX = (1 << _RRPV_BITS) - 1
_BRRIP_LONG_PROB = 32  # 1-in-32 insertions at long re-reference in BRRIP


class SetAssocCache:
    """Exact set-associative cache with LRU or DRRIP replacement."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.num_sets = max(1, config.num_lines // config.ways)
        self.ways = config.ways
        self.stats = CacheStats()
        self._tags: List[List[int]] = [[-1] * self.ways
                                       for _ in range(self.num_sets)]
        self._dirty: List[List[bool]] = [[False] * self.ways
                                         for _ in range(self.num_sets)]
        self._drrip = config.replacement == "drrip"
        if self._drrip:
            self._rrpv: List[List[int]] = [[_RRPV_MAX] * self.ways
                                           for _ in range(self.num_sets)]
            self._psel = 512  # 10-bit saturating selector, mid-point
            self._brrip_tick = 0
        else:
            # LRU stamps; larger == more recent.
            self._stamp: List[List[int]] = [[0] * self.ways
                                            for _ in range(self.num_sets)]
            self._clock = 0

    def _set_index(self, line: int) -> int:
        return line % self.num_sets

    def access(self, line: int, write: bool = False) -> bool:
        """Access one cache line address; returns True on hit."""
        set_index = self._set_index(line)
        tags = self._tags[set_index]
        try:
            way = tags.index(line)
        except ValueError:
            way = -1
        if way >= 0:
            self.stats.hits += 1
            self._touch(set_index, way)
            if write:
                self._dirty[set_index][way] = True
            return True
        self.stats.misses += 1
        self._fill(set_index, line, write)
        return False

    def contains(self, line: int) -> bool:
        """Lookup without side effects."""
        return line in self._tags[self._set_index(line)]

    def invalidate(self, line: int) -> None:
        """Drop a line, accounting it like a replacement victim.

        Mirrors :meth:`_fill`: removing a valid line is an eviction, and
        a dirty one must be written back — silently dropping it would
        lose the writeback traffic.  Idempotent: a second invalidate of
        the same line finds nothing and counts nothing.
        """
        set_index = self._set_index(line)
        tags = self._tags[set_index]
        try:
            way = tags.index(line)
        except ValueError:
            return
        self.stats.evictions += 1
        if self._dirty[set_index][way]:
            self.stats.writebacks += 1
        tags[way] = -1
        self._dirty[set_index][way] = False

    # -- replacement ------------------------------------------------------

    def _touch(self, set_index: int, way: int) -> None:
        if self._drrip:
            self._rrpv[set_index][way] = 0
        else:
            self._clock += 1
            self._stamp[set_index][way] = self._clock

    def _fill(self, set_index: int, line: int, write: bool) -> None:
        tags = self._tags[set_index]
        victim = self._pick_victim(set_index)
        if tags[victim] != -1:
            self.stats.evictions += 1
            if self._dirty[set_index][victim]:
                self.stats.writebacks += 1
        tags[victim] = line
        self._dirty[set_index][victim] = write
        if self._drrip:
            self._rrpv[set_index][victim] = self._insert_rrpv(set_index)
        else:
            self._clock += 1
            self._stamp[set_index][victim] = self._clock

    def _pick_victim(self, set_index: int) -> int:
        tags = self._tags[set_index]
        for way, tag in enumerate(tags):
            if tag == -1:
                return way
        if self._drrip:
            rrpv = self._rrpv[set_index]
            while True:
                for way, value in enumerate(rrpv):
                    if value == _RRPV_MAX:
                        return way
                for way in range(self.ways):
                    rrpv[way] = min(_RRPV_MAX, rrpv[way] + 1)
        stamps = self._stamp[set_index]
        return stamps.index(min(stamps))

    def _insert_rrpv(self, set_index: int) -> int:
        """DRRIP insertion policy via set dueling.

        Set 0 of every 64-set group leads for SRRIP, set 32 for BRRIP;
        PSEL counts SRRIP-leader misses up and BRRIP-leader misses down,
        and followers copy whichever policy is missing less.
        """
        group = set_index % 64
        if group == 0:  # SRRIP leader: its misses vote against SRRIP
            self._psel = min(1023, self._psel + 1)
            use_srrip = True
        elif group == 32:  # BRRIP leader
            self._psel = max(0, self._psel - 1)
            use_srrip = False
        else:
            use_srrip = self._psel < 512
        if use_srrip:
            return _RRPV_MAX - 1
        self._brrip_tick += 1
        if self._brrip_tick % _BRRIP_LONG_PROB == 0:
            return _RRPV_MAX - 1
        return _RRPV_MAX


def make_cache(config: CacheConfig, fast: bool = False):
    """The exact set-associative model, or the model's fast LRU."""
    if fast:
        return FastLruCache(config.num_lines)
    return SetAssocCache(config)


def make_hierarchy(config: SystemConfig, fast: bool = True
                   ) -> MemoryHierarchy:
    """A hierarchy on the model's LRU levels, or on exact set-assoc ones."""
    hier = MemoryHierarchy(config)
    if not fast:
        hier.l1 = [make_cache(config.l1d) for _ in range(config.num_cores)]
        hier.l2 = [make_cache(config.l2) for _ in range(config.num_cores)]
        hier.llc = make_cache(config.llc)
    return hier


# -- batch replay ------------------------------------------------------------

@dataclass
class LruReplay:
    """Everything a batch LRU access needs, in one pass."""

    hit_mask: np.ndarray       # per input access
    misses: int
    evictions: int
    writebacks: int            # dirty evicted segments (no final flush)
    resident_lines: np.ndarray  # surviving lines, oldest first
    resident_dirty: np.ndarray


def replay_lru(lines: np.ndarray, writes: np.ndarray, capacity: int,
               state_lines: Optional[np.ndarray] = None,
               state_dirty: Optional[np.ndarray] = None) -> LruReplay:
    """Batch-replay ``(line, write)`` accesses through LRU state.

    The pre-existing cache contents enter as a virtual prefix of
    first-access misses (recency order, ``write`` = dirty bit), which
    reconstructs exactly the starting state; prefix stats are then
    subtracted.  Eviction and writeback totals and the final contents
    follow from *residency segments*: each miss starts a segment, a
    segment is dirty if any access in it wrote, and LRU evicts segments
    in increasing order of their last-access time.
    """
    lines = np.ascontiguousarray(lines, dtype=np.int64)
    writes = np.ascontiguousarray(writes, dtype=bool)
    n_prefix = 0 if state_lines is None else int(state_lines.size)
    if n_prefix:
        full_lines = np.concatenate(
            [np.ascontiguousarray(state_lines, dtype=np.int64), lines])
        full_writes = np.concatenate(
            [np.ascontiguousarray(state_dirty, dtype=bool), writes])
    else:
        full_lines, full_writes = lines, writes
    n = full_lines.size
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return LruReplay(np.empty(0, dtype=bool), 0, 0, 0,
                         empty, np.empty(0, dtype=bool))

    rep, _collapsed_index = _collapse_runs(full_lines)
    c_lines = full_lines[rep]
    # A run is dirty if any access in it wrote.
    c_writes = np.logical_or.reduceat(full_writes, np.flatnonzero(rep))

    prev, order = previous_occurrence(c_lines)
    c_hits = lru_hit_mask(c_lines, capacity, prev=prev)
    hits_full = np.ones(n, dtype=bool)
    hits_full[rep] = c_hits

    misses_all = int(np.count_nonzero(~c_hits))
    final_size = min(misses_all, capacity)
    evictions = misses_all - final_size

    # -- residency segments (in (line, position) sorted order) ------------
    miss_sorted = ~c_hits[order]
    writes_sorted = c_writes[order]
    seg_starts = np.flatnonzero(miss_sorted)
    seg_dirty = np.logical_or.reduceat(writes_sorted, seg_starts)
    # A line's last segment is the one covering its group's last element.
    sorted_lines = c_lines[order]
    group_last = np.empty(c_lines.size, dtype=bool)
    group_last[-1] = True
    np.not_equal(sorted_lines[1:], sorted_lines[:-1],
                 out=group_last[:-1])
    seg_end = np.concatenate([seg_starts[1:], [c_lines.size]]) - 1
    seg_is_final = group_last[seg_end]

    # Final segments survive iff fewer than C distinct other lines are
    # accessed after the line's last access t:
    #   #{ j > t : prev[j] <= t } == #{ prev <= t } - (t + 1).
    t_last = order[seg_end[seg_is_final]]
    prev_sorted_vals = np.sort(prev)
    d_end = (np.searchsorted(prev_sorted_vals, t_last, side="right")
             - (t_last + 1))
    survive_final = d_end <= capacity - 1

    evicted_dirty = int(seg_dirty[~seg_is_final].sum()) \
        + int(seg_dirty[seg_is_final][~survive_final].sum())

    res_order = np.argsort(t_last[survive_final], kind="stable")
    resident_lines = c_lines[t_last[survive_final]][res_order]
    resident_dirty = seg_dirty[seg_is_final][survive_final][res_order]

    return LruReplay(
        hit_mask=hits_full[n_prefix:],
        misses=misses_all - n_prefix,
        evictions=evictions,
        writebacks=evicted_dirty,
        resident_lines=resident_lines,
        resident_dirty=resident_dirty,
    )


def access_many(cache, lines: np.ndarray,
                writes: Union[np.ndarray, bool] = False) -> np.ndarray:
    """Batch access: per-line hit mask, same state as looping ``access``.

    A :class:`FastLruCache` is replayed offline by :func:`replay_lru`,
    which updates ``stats`` by the same deltas the scalar loop would and
    leaves the same contents, dirty bits and recency order.  Any other
    cache is walked access by access.
    """
    lines = np.ascontiguousarray(lines, dtype=np.int64)
    writes_arr = np.broadcast_to(np.asarray(writes, dtype=bool),
                                 lines.shape)
    if not isinstance(cache, FastLruCache):
        return np.array([cache.access(line, write) for line, write
                         in zip(lines.tolist(), writes_arr.tolist())],
                        dtype=bool)
    state_lines = np.fromiter(cache._lines.keys(), dtype=np.int64,
                              count=len(cache._lines))
    state_dirty = np.fromiter(cache._lines.values(), dtype=bool,
                              count=len(cache._lines))
    replay = replay_lru(lines, writes_arr, cache.capacity_lines,
                        state_lines, state_dirty)
    cache.stats.hits += int(replay.hit_mask.sum())
    cache.stats.misses += replay.misses
    cache.stats.evictions += replay.evictions
    cache.stats.writebacks += replay.writebacks
    cache._lines = OrderedDict(
        zip(replay.resident_lines.tolist(),
            map(bool, replay.resident_dirty.tolist())))
    return replay.hit_mask


def hierarchy_access_many(hier: MemoryHierarchy, lines: np.ndarray,
                          core: int = 0, write: bool = False,
                          data_class: str = "other",
                          start_level: str = "l1") -> np.ndarray:
    """Line-granular accesses in a batch; per-line latencies.

    When every traversed level is a :class:`FastLruCache`, each level
    filters the stream in one :func:`access_many` replay — a level's
    state only ever depends on the ordered subsequence of upper-level
    misses, so level-at-a-time replay equals the interleaved walk.
    Exact set-associative levels take the hierarchy's scalar walk.
    """
    lines = np.ascontiguousarray(lines, dtype=np.int64)
    order = ("l1", "l2", "llc")
    traversed = order[order.index(start_level):]
    caches = {"l1": hier.l1[core], "l2": hier.l2[core], "llc": hier.llc}
    if not all(isinstance(caches[level], FastLruCache)
               for level in traversed):
        return np.array([hier._access_line(line, core, write, data_class,
                                           start_level)
                         for line in lines.tolist()], dtype=np.int64)
    config = hier.config
    latency = np.zeros(lines.size, dtype=np.int64)
    level_cost = {
        "l1": config.l1d.latency_cycles,
        "l2": config.l2.latency_cycles,
        "llc": int(hier.noc.average_llc_latency(config.llc.latency_cycles)),
    }
    pending = np.arange(lines.size)
    for level in traversed:
        latency[pending] += level_cost[level]
        hit = access_many(caches[level], lines[pending], write)
        pending = pending[~hit]
        if pending.size == 0:
            return latency
    latency[pending] += config.memory.latency_cycles
    hier.traffic.add(data_class, LINE_BYTES * pending.size, False)
    return latency
