"""Parallelism and load balancing (paper Sec III-D).

"Our runtime divides either the vertices (in all-active) or frontier (in
non-all-active algorithms) into chunks, and divides them among threads.
Threads then enqueue traversals to fetchers chunk by chunk, and perform
work-stealing of chunks to avoid load imbalance."

This module models that: vertex work (out-degrees) is cut into chunks,
dealt to cores, and executed under an event-driven work-stealing
discipline.  The outcome is a *load-imbalance factor* — makespan over
perfect division — which the timing model applies to compute cycles.
Power-law graphs make this matter: a mega-hub's chunk can dominate an
iteration, and stealing (vs. static partitioning) is what keeps the
factor near 1.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

#: Default chunk granularity (vertices per work chunk).
DEFAULT_CHUNK_VERTICES = 64


def chunk_weights(degrees: np.ndarray,
                  chunk_vertices: int = DEFAULT_CHUNK_VERTICES
                  ) -> np.ndarray:
    """Per-chunk work (edges) when cutting vertices into fixed chunks."""
    degrees = np.asarray(degrees, dtype=np.int64)
    if degrees.size == 0:
        return np.zeros(0, dtype=np.int64)
    pad = (-degrees.size) % chunk_vertices
    padded = np.concatenate([degrees, np.zeros(pad, dtype=np.int64)])
    return padded.reshape(-1, chunk_vertices).sum(axis=1)


@dataclass
class ScheduleResult:
    """Outcome of one simulated parallel execution."""

    makespan: float
    total_work: float
    num_cores: int
    steals: int

    @property
    def imbalance(self) -> float:
        """Makespan over the perfectly balanced time (>= 1)."""
        if self.total_work <= 0:
            return 1.0
        return self.makespan / (self.total_work / self.num_cores)


def simulate_work_stealing(chunks: Sequence[float], num_cores: int = 16,
                           steal_overhead: float = 0.0) -> ScheduleResult:
    """Event-driven work-stealing schedule of ``chunks``.

    Chunks are dealt round-robin (the runtime's initial split); a core
    that drains its own deque steals the largest remaining chunk from
    the most loaded peer, paying ``steal_overhead`` work units.
    """
    chunks = [float(c) for c in chunks if c > 0]
    total = float(sum(chunks))
    if not chunks:
        return ScheduleResult(0.0, 0.0, num_cores, 0)
    queues: List[List[float]] = [[] for _ in range(num_cores)]
    for index, chunk in enumerate(chunks):
        queues[index % num_cores].append(chunk)
    # (free_time, core) heap.
    heap = [(0.0, core) for core in range(num_cores)]
    heapq.heapify(heap)
    steals = 0
    makespan = 0.0
    while True:
        free_time, core = heapq.heappop(heap)
        if queues[core]:
            chunk = queues[core].pop()
        else:
            victim = max(range(num_cores), key=lambda c: len(queues[c]))
            if not queues[victim]:
                makespan = max(makespan, free_time)
                if not any(queues):
                    # Let remaining cores finish their in-flight time.
                    while heap:
                        t, _ = heapq.heappop(heap)
                        makespan = max(makespan, t)
                    break
                heapq.heappush(heap, (free_time, core))
                continue
            chunk = queues[victim].pop(0) + steal_overhead
            steals += 1
        finish = free_time + chunk
        makespan = max(makespan, finish)
        heapq.heappush(heap, (finish, core))
    return ScheduleResult(makespan, total, num_cores, steals)


def iteration_imbalance(degrees: np.ndarray, num_cores: int = 16,
                        chunk_vertices: int = DEFAULT_CHUNK_VERTICES
                        ) -> float:
    """Work-stealing imbalance factor for one iteration's active set."""
    chunks = chunk_weights(degrees, chunk_vertices)
    return simulate_work_stealing(chunks.tolist(),
                                  num_cores=num_cores).imbalance
