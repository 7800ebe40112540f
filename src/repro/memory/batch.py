"""Offline (batch) replay of fully-associative LRU — exact, vectorized.

The replay stage of the pricing pipeline (:mod:`repro.stages.replay`)
replays millions of scatter accesses per (app, dataset) identity through
an LLC-sized LRU.  The scalar ``OrderedDict`` oracle
(``lru_scatter_oracle`` and friends in ``tests/oracles/traffic.py``) is
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
3. eviction and final-state reconstruction from *residency segments*
   (:func:`repro.runtime.traffic.phi_coalesce_replay`): each miss
   starts a segment, and LRU evicts segments in increasing order of
   their last-access time, so totals and the surviving lines follow
   from per-segment reductions — no event loop.

The big wins are structural: scatter streams address a few values per
line, so run collapse shrinks the trace several-fold, and the paper's
binned schemes bound each bin's working set below the cache capacity,
which makes the all-fit shortcut decide every access vectorized.

Every function here is bit-identical to its scalar counterpart;
``tests/test_batch_equivalence.py`` enforces that on randomized streams.
"""

from __future__ import annotations

from collections import OrderedDict
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
