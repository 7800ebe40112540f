"""The engine's per-cycle reference loops.

:mod:`repro.engine` runs two cycle loops, both over
:meth:`~repro.engine.SpZipEngine.tick`: the drive loop
(:func:`~repro.engine.drive`; :meth:`~repro.engine.SpZipEngine.run` is
the same loop with no core attached) and the lockstep loop of
:meth:`~repro.engine.MulticoreTraversal.run`.  Both jump idle stretches
to the next access-unit completion.  This module holds the literal
hardware loops those must be cycle-identical to.  Every simulated cycle
delivers due access-unit responses, asks the scheduler for one ready
context and advances the clock, even when nothing can happen; a loop
that sees no progress for :data:`STALL_CYCLES` cycles raises
:class:`~repro.engine.EngineStall`.  ``tests/test_engine_equivalence.py``
drives the same workloads through both and compares everything
observable.

The loops read only the engine state the engine's own loops read:
``_deliver``, ``scheduler.pick``, ``is_drained``, ``enqueue``/``dequeue``
and a traversal's cores.
"""

from collections import deque
from typing import Dict, List

from repro.dcl import pack_range
from repro.engine import (
    INPUT_QUEUE,
    ROWS_QUEUE,
    Compressor,
    DriveRequest,
    DriveResult,
    EngineStall,
    MulticoreTraversal,
    make_chunks,
)

#: No-progress cycles a per-cycle loop spins before declaring a stall.
STALL_CYCLES = 10_000


def tick(engine) -> bool:
    """One hardware cycle; True if anything happened.

    Waiting on in-flight memory counts as progress here, which is what
    the stall guards below need.
    """
    if engine.scheduler is None:
        raise RuntimeError("no program loaded")
    pushed, _popped = engine._deliver()
    op = engine.scheduler.pick(engine)
    if op is not None:
        op.fire(engine)
    engine.cycle += 1
    return pushed or op is not None or bool(engine._inflight)


def run(engine, max_cycles: int = 10_000_000) -> int:
    """:meth:`SpZipEngine.run`: :func:`drive` with no core attached."""
    if engine.is_drained():
        return 0
    return drive(engine, DriveRequest(max_cycles=max_cycles)).cycles


class CycleCompressor(Compressor):
    """A compressor whose :meth:`drain` runs the per-cycle loops."""

    def tick(self) -> bool:
        return tick(self)

    def run(self, max_cycles: int = 10_000_000) -> int:
        return run(self, max_cycles)


def drive(engine, request: DriveRequest) -> DriveResult:
    """:func:`repro.engine.drive`, one cycle at a time."""
    scheduler = engine.scheduler
    if scheduler is None:
        raise RuntimeError("no program loaded")
    fires0 = dict(scheduler.fires_by_op)
    issued0 = scheduler.issued
    idle0 = scheduler.idle_cycles
    skipped0 = scheduler.skipped_idle_cycles
    pending = {name: list(items) for name, items in request.feeds.items()}
    outputs: Dict[str, List] = {name: [] for name in request.consume}
    start = engine.cycle
    idle = 0
    while True:
        progressed = False
        # Core enqueues (one enqueue instruction per input queue per cycle).
        for name, items in pending.items():
            if items and engine.enqueue(name, items[0].value,
                                        items[0].marker):
                items.pop(0)
                progressed = True
        if tick(engine):
            progressed = True
        # Core dequeues.
        budget = request.dequeues_per_cycle
        for name in outputs:
            while budget > 0:
                entry = engine.dequeue(name)
                if entry is None:
                    break
                outputs[name].append(entry)
                budget -= 1
                progressed = True
        if (not any(pending.values()) and engine.is_drained()
                and all(engine.queues[name].is_empty for name in outputs)):
            break
        idle = 0 if progressed else idle + 1
        if idle > STALL_CYCLES:
            raise EngineStall("core/engine co-simulation stalled")
        if engine.cycle - start > request.max_cycles:
            raise EngineStall(f"exceeded {request.max_cycles} cycles")
    issued = scheduler.issued - issued0
    idle_cycles = scheduler.idle_cycles - idle0
    return DriveResult(
        cycles=engine.cycle - start,
        outputs=outputs,
        fires_by_op={name: count - fires0.get(name, 0)
                     for name, count in scheduler.fires_by_op.items()
                     if count - fires0.get(name, 0)},
        issued=issued,
        idle_cycles=idle_cycles,
        skipped_idle_cycles=scheduler.skipped_idle_cycles - skipped0,
        activity_factor=issued / (issued + idle_cycles)
        if issued + idle_cycles else 0.0,
    )


def run_traversal(traversal: MulticoreTraversal, chunks,
                  max_cycles: int = 50_000_000) -> Dict[str, object]:
    """:meth:`MulticoreTraversal.run`, one global cycle at a time."""
    cores = traversal.cores
    for core in cores:
        core.chunks = deque()
    for index, chunk in enumerate(chunks):
        cores[index % traversal.num_cores].chunks.append(chunk)
    cycle = 0
    idle_streak = 0
    while True:
        progressed = False
        active = 0
        for core_id, core in enumerate(cores):
            if _step_core(traversal, core_id, core, cycle):
                progressed = True
            if core.current is not None or core.chunks \
                    or not core.fetcher.is_drained():
                active += 1
        cycle += 1
        if active == 0:
            break
        idle_streak = 0 if progressed else idle_streak + 1
        if idle_streak > STALL_CYCLES:
            raise EngineStall("multicore traversal stalled")
        if cycle > max_cycles:
            raise EngineStall(f"exceeded {max_cycles} cycles")
    return {
        "makespan_cycles": cycle,
        "total_elements": sum(c.elements for c in cores),
        "per_core_elements": [c.elements for c in cores],
        "per_core_markers": [c.markers for c in cores],
        "steals": sum(c.steals for c in cores),
        "finish_cycles": [c.finish_cycle for c in cores],
    }


def _step_core(traversal: MulticoreTraversal, core_id: int, core,
               cycle: int) -> bool:
    """One core's hardware cycle; True if anything happened."""
    fetcher = core.fetcher
    progressed = False
    # Start the next chunk when the previous one fully drained.
    if core.current is None and fetcher.is_drained() \
            and traversal._outputs_empty(core):
        chunk = traversal._next_chunk(core_id, core)
        if chunk is not None:
            traversal.feed(fetcher, chunk)
            core.current = chunk
            progressed = True
    if tick(fetcher):
        progressed = True
    # Core-side dequeues.
    budget = traversal.dequeues_per_cycle
    for name in traversal.consume_queues:
        while budget > 0:
            entry = fetcher.dequeue(name)
            if entry is None:
                break
            budget -= 1
            progressed = True
            if entry.marker:
                core.markers += 1
            else:
                core.elements += 1
            if traversal.on_entry is not None:
                traversal.on_entry(core_id, name, entry)
    if core.current is not None and fetcher.is_drained() \
            and traversal._outputs_empty(core):
        core.current = None
        core.finish_cycle = cycle
    return progressed


def parallel_row_traversal(hierarchy, num_vertices: int, program_factory,
                           chunk_vertices: int = 64,
                           num_cores=None) -> Dict[str, object]:
    """:func:`repro.engine.parallel_row_traversal` on
    :func:`run_traversal`: the same chunk feed, one cycle at a time."""

    def feed(fetcher, chunk) -> None:
        start, end = chunk
        if not fetcher.enqueue(INPUT_QUEUE, 0, marker=True):
            raise EngineStall("input queue full at chunk feed")
        if not fetcher.enqueue(INPUT_QUEUE, pack_range(start, end + 1)):
            raise EngineStall("input queue full at chunk feed")

    traversal = MulticoreTraversal(hierarchy, program_factory, feed,
                                   [ROWS_QUEUE], num_cores=num_cores)
    return run_traversal(traversal,
                         make_chunks(num_vertices, chunk_vertices))
