"""Offline (batch) replay of fully-associative LRU — exact, vectorized.

The replay stage of the pricing pipeline (:mod:`repro.stages.replay`)
replays millions of scatter accesses per (app, dataset) identity through
an LLC-sized LRU.  The scalar ``OrderedDict`` oracle
(:func:`repro.runtime.traffic_array.lru_scatter_oracle` and friends) is
exact but interpreter-bound; this module computes the *same* result with
NumPy, using the LRU stack property:

    an access to line ``x`` hits iff the number of **distinct** lines
    referenced since the previous access to ``x`` is at most ``C - 1``
    (capacity ``C``), independent of what hit or missed in between.

That turns replay into three offline subproblems:

1. ``prev[i]`` — position of the previous access to the same line
   (grouped ``argsort``);
2. the per-access hit decision, resolved by a cascade of exact
   shortcuts: a trace whose working set fits (``distinct <= C``) never
   evicts, so every reuse hits; a reuse within ``C`` raw accesses spans
   at most ``C`` distinct lines, so it hits too; first accesses always
   miss.  What survives (long-range reuses in an over-capacity working
   set) is decided by counting each window's first occurrences
   (``#{prev[i] < j < i : prev[j] <= prev[i]}``) directly when few
   remain, or by one sequential pass over the run-collapsed trace when
   many do — the decisions are interpreter-bound either way, and the
   collapsed trace is the smallest exact representation;
3. eviction/writeback/final-state reconstruction from *residency
   segments*: each miss starts a segment, a segment is dirty if any
   access in it wrote, and LRU evicts segments in increasing order of
   their last-access time, so totals and the surviving recency order
   follow from per-segment reductions — no event loop.

The big wins are structural: scatter streams address a few values per
line, so run collapse shrinks the trace several-fold, and the paper's
binned schemes bound each bin's working set below the cache capacity,
which makes the all-fit shortcut decide every access vectorized.

Every function here is bit-identical to its scalar counterpart;
``tests/test_batch_equivalence.py`` enforces that on randomized streams.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

#: Ambiguous-reuse thresholds for the adaptive resolver in
#: :func:`lru_hit_mask`: direct per-window counting is used while the
#: query count and the summed window lengths stay below these bounds.
_DIRECT_MAX_QUERIES = 1024
_DIRECT_MAX_WORK_FACTOR = 16


def previous_occurrence(lines: np.ndarray
                        ) -> Tuple[np.ndarray, np.ndarray]:
    """``prev[i]`` = index of the prior access to ``lines[i]`` (else -1).

    Also returns the stable (line, position) sort order, which callers
    reuse for grouped reductions.  When line ids fit, (line, position)
    pairs are packed into one int64 so a single unstable sort replaces
    the much slower stable ``argsort``.
    """
    n = lines.size
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    shift = max(1, int(n - 1).bit_length())
    if int(lines.min()) >= 0 and int(lines.max()) < (1 << (62 - shift)):
        composite = (lines << shift) | np.arange(n, dtype=np.int64)
        composite.sort()
        order = composite & ((1 << shift) - 1)
        sorted_lines = composite >> shift
    else:
        order = np.argsort(lines, kind="stable")
        sorted_lines = lines[order]
    prev_sorted = np.empty(n, dtype=np.int64)
    prev_sorted[0] = -1
    same = sorted_lines[1:] == sorted_lines[:-1]
    prev_sorted[1:] = np.where(same, order[:-1], -1)
    prev = np.empty(n, dtype=np.int64)
    prev[order] = prev_sorted
    return prev, order


def _sequential_hit_mask(lines: np.ndarray,
                         capacity: int) -> np.ndarray:
    """Reference LRU walk, used when a trace defeats every shortcut.

    Callers hand it the run-collapsed trace, so even this pass does the
    minimum possible interpreter work for an exact answer.
    """
    cache: "OrderedDict[int, None]" = OrderedDict()
    hits = []
    for line in lines.tolist():
        if line in cache:
            hits.append(True)
            cache.move_to_end(line)
        else:
            hits.append(False)
            if len(cache) >= capacity:
                cache.popitem(last=False)
            cache[line] = None
    return np.array(hits, dtype=bool)


def lru_hit_mask(lines: np.ndarray, capacity: int,
                 prev: Optional[np.ndarray] = None) -> np.ndarray:
    """Exact cold-start fully-associative-LRU hit mask for a trace.

    Adaptive: vectorized shortcuts decide every access when the working
    set fits the cache (the paper's binned schemes guarantee this per
    bin) or when reuse distances are short; long-range reuses in an
    over-capacity working set are counted per window while few, and a
    single sequential pass resolves pathological traces — always
    bit-identical to the scalar model.
    """
    if capacity <= 0:
        raise ValueError("capacity must be positive")
    lines = np.ascontiguousarray(lines, dtype=np.int64)
    n = lines.size
    if n == 0:
        return np.empty(0, dtype=bool)
    if prev is None:
        prev, _order = previous_occurrence(lines)
    hits = prev >= 0
    # Working set fits: LRU never evicts, so every reuse is a hit.
    if n - int(np.count_nonzero(hits)) <= capacity:
        return hits
    pos = np.arange(n, dtype=np.int64)
    gap = pos - prev
    # Reuse within C raw accesses can span at most C distinct lines.
    ambiguous = hits & (gap > capacity)
    amb = np.flatnonzero(ambiguous)
    if amb.size == 0:
        return hits
    if amb.size <= _DIRECT_MAX_QUERIES and \
            int(gap[amb].sum()) <= _DIRECT_MAX_WORK_FACTOR * n:
        # Distinct lines in (p, i) = windowed first occurrences, i.e.
        # positions j in (p, i) whose own previous access is at or
        # before p — independent of intermediate hit/miss outcomes.
        limit = capacity - 1
        for i in amb.tolist():
            p = int(prev[i])
            window = prev[p + 1:i]
            hits[i] = int(np.count_nonzero(window <= p)) <= limit
        return hits
    return _sequential_hit_mask(lines, capacity)


def _collapse_runs(lines: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(run-representative mask, collapsed index of each access).

    Adjacent repeats of a line are guaranteed hits and leave the LRU
    order unchanged, so the core only needs one access per run; the
    distinct-count in any reuse window is unaffected.
    """
    rep = np.empty(lines.size, dtype=bool)
    if lines.size:
        rep[0] = True
        np.not_equal(lines[1:], lines[:-1], out=rep[1:])
    collapsed_index = np.cumsum(rep) - 1
    return rep, collapsed_index


@dataclass
class LruReplay:
    """Everything :meth:`FastLruCache.access_many` needs, in one pass."""

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
    subtracted.  Returns per-access hits, stat deltas, and the final
    contents in recency order.
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

    rep, collapsed_index = _collapse_runs(full_lines)
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


def lru_scatter_misses(lines: np.ndarray, capacity: int) -> int:
    """Miss count of a read-modify-write scatter replay (cold LRU).

    For the RMW streams the traffic model replays, every inserted line
    is dirty, so lifetime writebacks (evictions + final flush) equal the
    miss count — callers needing writebacks reuse this number.
    """
    lines = np.ascontiguousarray(lines, dtype=np.int64)
    if lines.size == 0:
        return 0
    rep, _ = _collapse_runs(lines)
    c_lines = lines[rep]
    hits = lru_hit_mask(c_lines, capacity)
    return int(np.count_nonzero(~hits))
