"""Functional multicore execution: per-core fetchers + work stealing.

Sec III-D: "we use SpZip in a parallel fashion.  Our runtime divides
either the vertices or frontier into chunks, and divides them among
threads.  Threads then enqueue traversals to fetchers chunk by chunk,
and perform work-stealing of chunks to avoid load imbalance."

:class:`MulticoreTraversal` is that runtime at the functional level:
every core owns a fetcher bound to its private L2 (one shared
:class:`~repro.memory.MemoryHierarchy`), vertex ranges are dealt as
chunks, and idle cores steal.  The simulation advances all engines in a
single global cycle loop, so the result is a *makespan* in engine cycles
plus per-core statistics — the functional twin of the scheme-level
model's work-stealing imbalance factor.

Each global cycle runs every core's :meth:`~repro.engine.SpZipEngine.tick`
once.  A cycle in which *no core* did anything — all fetchers idle, all
deliveries in flight — goes to :func:`~repro.engine.base.skip_frozen`,
the drive loop's skip-ahead, which jumps every fetcher in lockstep to
the earliest access-unit completion across cores.  The loop produces
the same makespan and per-core counters as the literal per-cycle
global loop.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.dcl import pack_range
from repro.dcl.program import Program
from repro.engine.base import EngineStall, skip_frozen
from repro.engine.fetcher import Fetcher
from repro.memory.hierarchy import MemoryHierarchy

#: A chunk is a [start, end) vertex range.
Chunk = Tuple[int, int]


def make_chunks(num_vertices: int, chunk_vertices: int = 64) -> List[Chunk]:
    """Cut the vertex space into fixed-size work chunks."""
    if chunk_vertices <= 0:
        raise ValueError("chunk_vertices must be positive")
    return [(start, min(num_vertices, start + chunk_vertices))
            for start in range(0, num_vertices, chunk_vertices)]


@dataclass
class CoreState:
    """One core: its fetcher, work deque, and counters."""

    fetcher: Fetcher
    chunks: "Deque[Chunk]" = field(default_factory=deque)
    current: Optional[Chunk] = None
    elements: int = 0
    markers: int = 0
    steals: int = 0
    finish_cycle: int = 0


class MulticoreTraversal:
    """Parallel chunked traversal across per-core fetchers.

    ``program_factory`` builds one DCL program per core (programs hold
    per-engine operator state, so they cannot be shared);
    ``feed(fetcher, chunk)`` enqueues a chunk's inputs, and
    ``consume_queues`` names the output queues whose entries the core
    drains (counted, and optionally handed to ``on_entry``).
    """

    def __init__(self, hierarchy: MemoryHierarchy,
                 program_factory: Callable[[], Program],
                 feed: Callable[[Fetcher, Chunk], None],
                 consume_queues: List[str],
                 num_cores: Optional[int] = None,
                 dequeues_per_cycle: int = 2,
                 on_entry=None) -> None:
        self.hierarchy = hierarchy
        self.num_cores = num_cores if num_cores is not None \
            else hierarchy.config.num_cores
        self.feed = feed
        self.consume_queues = consume_queues
        self.dequeues_per_cycle = dequeues_per_cycle
        self.on_entry = on_entry
        self.cores: List[CoreState] = []
        for core_id in range(self.num_cores):
            fetcher = Fetcher.for_core(hierarchy, core=core_id,
                                       program=program_factory())
            self.cores.append(CoreState(fetcher=fetcher))

    def run(self, chunks: List[Chunk],
            max_cycles: int = 50_000_000) -> Dict[str, object]:
        """Execute all chunks; returns makespan + per-core stats.

        Every fetcher's clock advances in lockstep with the global one
        (one engine cycle per global cycle), so a globally idle cycle —
        no feeds, fires, deliveries, dequeues, or chunk transitions on
        any core — leaves the whole system frozen until the earliest
        in-flight access-unit completion across cores.
        :func:`skip_frozen` jumps every fetcher there and books the
        skipped cycles as idle on each fetcher's scheduler.
        """
        for core in self.cores:
            core.chunks = deque()
        for index, chunk in enumerate(chunks):
            self.cores[index % self.num_cores].chunks.append(chunk)
        fetchers = [core.fetcher for core in self.cores]
        cycle = 0
        while True:
            worked = False
            active = 0
            for core_id, core in enumerate(self.cores):
                if self._step_core(core_id, core, cycle):
                    worked = True
                if core.current is not None or core.chunks \
                        or not core.fetcher.is_drained():
                    active += 1
            cycle += 1
            if active == 0:
                break
            if not worked:
                cycle += skip_frozen(fetchers)
            if cycle > max_cycles:
                raise EngineStall(f"exceeded {max_cycles} cycles")
        total = sum(core.elements for core in self.cores)
        return {
            "makespan_cycles": cycle,
            "total_elements": total,
            "per_core_elements": [c.elements for c in self.cores],
            "per_core_markers": [c.markers for c in self.cores],
            "steals": sum(c.steals for c in self.cores),
            "finish_cycles": [c.finish_cycle for c in self.cores],
        }

    # -- one core, one cycle ----------------------------------------------------

    def _step_core(self, core_id: int, core: CoreState,
                   cycle: int) -> bool:
        """One core's cycle; returns True only if *state changed*.

        Waiting on in-flight memory is not work (the global loop skips
        over it instead), while a chunk completing *is* (it mutates core
        state, so the next cycle can't be elided).
        """
        progressed = False
        if core.current is None and core.fetcher.is_drained() \
                and self._outputs_empty(core):
            chunk = self._next_chunk(core_id, core)
            if chunk is not None:
                self.feed(core.fetcher, chunk)
                core.current = chunk
                progressed = True
        if core.fetcher.tick():
            progressed = True
        budget = self.dequeues_per_cycle
        for name in self.consume_queues:
            while budget > 0:
                entry = core.fetcher.dequeue(name)
                if entry is None:
                    break
                budget -= 1
                progressed = True
                if entry.marker:
                    core.markers += 1
                else:
                    core.elements += 1
                if self.on_entry is not None:
                    self.on_entry(core_id, name, entry)
        if core.current is not None and core.fetcher.is_drained() \
                and self._outputs_empty(core):
            core.current = None
            core.finish_cycle = cycle
            progressed = True
        return progressed

    def _outputs_empty(self, core: CoreState) -> bool:
        return all(core.fetcher.queues[name].is_empty
                   for name in self.consume_queues)

    def _next_chunk(self, core_id: int, core: CoreState
                    ) -> Optional[Chunk]:
        if core.chunks:
            return core.chunks.popleft()
        victim = max(self.cores, key=lambda c: len(c.chunks))
        if victim.chunks:
            core.steals += 1
            return victim.chunks.pop()  # steal from the tail
        return None


def parallel_row_traversal(hierarchy: MemoryHierarchy, num_vertices: int,
                           program_factory: Callable[[], Program],
                           chunk_vertices: int = 64,
                           num_cores: Optional[int] = None,
                           collect: bool = False):
    """Convenience wrapper: chunked CSR-style traversal on all cores.

    Feeds each chunk as the (rows, offsets-boundary) range pair the
    prebuilt traversal pipelines expect.  With ``collect=True`` the rows
    each core observed are returned for verification.
    """
    from repro.engine.pipelines import INPUT_QUEUE, ROWS_QUEUE
    collected: Dict[int, List[int]] = {}

    def feed(fetcher: Fetcher, chunk: Chunk) -> None:
        start, end = chunk
        # The reset marker clears the rows walker's boundary state from
        # the previous chunk (chunks are not contiguous per core), then
        # the offsets range [start, end] bounds this chunk's rows.
        if not fetcher.enqueue(INPUT_QUEUE, 0, marker=True):
            raise EngineStall("input queue full at chunk feed")
        if not fetcher.enqueue(INPUT_QUEUE, pack_range(start, end + 1)):
            raise EngineStall("input queue full at chunk feed")

    def on_entry(core_id: int, _name: str, entry) -> None:
        collected.setdefault(core_id, []).append(
            (entry.value, entry.marker))

    traversal = MulticoreTraversal(
        hierarchy, program_factory, feed, [ROWS_QUEUE],
        num_cores=num_cores,
        on_entry=on_entry if collect else None)
    stats = traversal.run(make_chunks(num_vertices, chunk_vertices))
    if collect:
        stats["collected"] = collected
    return stats
