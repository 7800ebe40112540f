"""Core <-> engine co-simulation helpers.

Hardware cores interact with SpZip engines through ``enqueue``/``dequeue``
instructions (Sec III-A).  These drivers model the core side of that
conversation — feed inputs when queues have space, consume outputs at a
configurable rate — while running the engine, and report the cycles the
whole exchange took.  They are what the examples, the functional tests,
and the Fig 21 scratchpad study use to "run a core program".

The public surface is::

    request = DriveRequest(feeds={"input": [pack_range(0, n)]},
                           consume=("rows",))
    result = drive(engine, request)

:class:`DriveRequest` is a frozen description of the core side of the
run (what gets fed, what gets consumed, at what rate, for how long);
:class:`DriveResult` carries the outputs plus per-run scheduler
statistics.  This typed form is the *only* form: the pre-typed keyword
spelling ``drive(engine, feeds=..., consume=...)`` was removed after
its deprecation cycle, and the signature rejects it.

The drive loop is the one single-engine loop: :meth:`SpZipEngine.run`
is the same loop with no core attached.  Each iteration runs one
:meth:`SpZipEngine.tick`, and a cycle that changed nothing hands over
to :func:`~repro.engine.base.skip_frozen`, which jumps to the next
access-unit completion; the result is cycle-identical to the literal
per-cycle loop (see ``docs/ENGINE.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Tuple, Union

from repro.dcl.queue import Entry
from repro.engine.base import EngineStall, SpZipEngine, skip_frozen
from repro.obs import TRACER

#: What callers may put in a feed list; normalized by :meth:`Feed.of`.
FeedLike = Union[int, Tuple[int, bool], Entry, "Feed"]


@dataclass(frozen=True)
class Feed:
    """One entry the core enqueues into an engine input queue."""

    value: int
    marker: bool = False

    @classmethod
    def of(cls, item: FeedLike) -> "Feed":
        """Normalize the accepted feed spellings to a :class:`Feed`.

        This is the *single* normalization point for core-side inputs:

        * ``Feed(value, marker)`` — passed through;
        * ``Entry`` — value/marker copied;
        * ``(value, marker)`` tuple — coerced;
        * a bare ``int`` — a non-marker value.
        """
        if isinstance(item, Feed):
            return item
        if isinstance(item, Entry):
            return cls(item.value, item.marker)
        if isinstance(item, tuple):
            value, marker = item
            return cls(int(value), bool(marker))
        return cls(int(item), False)


@dataclass(frozen=True)
class DriveRequest:
    """Everything the modelled core does during a :func:`drive` run.

    ``feeds`` maps input-queue names to the entries the core enqueues
    (any :data:`FeedLike` spelling; normalized on construction);
    ``consume`` names the output queues the core dequeues from, at up to
    ``dequeues_per_cycle`` entries per cycle (modelling the core's
    dequeue-instruction throughput).
    """

    feeds: Mapping[str, Tuple[Feed, ...]] = field(default_factory=dict)
    consume: Tuple[str, ...] = ()
    dequeues_per_cycle: int = 2
    max_cycles: int = 10_000_000

    def __post_init__(self) -> None:
        object.__setattr__(self, "feeds", {
            name: tuple(Feed.of(item) for item in items)
            for name, items in dict(self.feeds).items()
        })
        object.__setattr__(self, "consume", tuple(self.consume))
        if self.dequeues_per_cycle < 1:
            raise ValueError("dequeues_per_cycle must be >= 1")


@dataclass
class DriveResult:
    """What a co-simulated run produced and what it cost.

    ``cycles`` is the wall time of this run; the scheduler statistics
    (``fires_by_op``, ``issued``, ``idle_cycles``,
    ``skipped_idle_cycles``, ``activity_factor``) are per-run deltas.
    ``skipped_idle_cycles`` is the part of ``idle_cycles`` the loop
    jumped over instead of executing.
    """

    cycles: int
    outputs: Dict[str, List[Entry]] = field(default_factory=dict)
    fires_by_op: Dict[str, int] = field(default_factory=dict)
    issued: int = 0
    idle_cycles: int = 0
    skipped_idle_cycles: int = 0
    activity_factor: float = 0.0

    def values(self, queue: str) -> List[int]:
        """Non-marker values dequeued from ``queue``."""
        return [e.value for e in self.outputs.get(queue, []) if not e.marker]

    def chunks(self, queue: str) -> List[List[int]]:
        """Values grouped by marker boundaries (trailing chunk included)."""
        chunks: List[List[int]] = [[]]
        for entry in self.outputs.get(queue, []):
            if entry.marker:
                chunks.append([])
            else:
                chunks[-1].append(entry.value)
        if chunks and not chunks[-1]:
            chunks.pop()
        return chunks


def drive(engine: SpZipEngine, request: DriveRequest) -> DriveResult:
    """Run ``engine`` against a modelled core until everything drains."""
    scheduler = engine.scheduler
    if scheduler is None:
        raise RuntimeError("no program loaded")
    fires0 = dict(scheduler.fires_by_op)
    issued0 = scheduler.issued
    idle0 = scheduler.idle_cycles
    skipped0 = scheduler.skipped_idle_cycles
    with TRACER.span("engine.drive") as span:
        cycles, outputs = _drive_loop(engine, request)
        issued = scheduler.issued - issued0
        idle = scheduler.idle_cycles - idle0
        result = DriveResult(
            cycles=cycles,
            outputs=outputs,
            fires_by_op={name: count - fires0.get(name, 0)
                         for name, count in scheduler.fires_by_op.items()
                         if count - fires0.get(name, 0)},
            issued=issued,
            idle_cycles=idle,
            skipped_idle_cycles=scheduler.skipped_idle_cycles - skipped0,
            activity_factor=issued / (issued + idle)
            if issued + idle else 0.0,
        )
        span.set(cycles=result.cycles, issued=result.issued,
                 idle_cycles=result.idle_cycles,
                 skipped_idle_cycles=result.skipped_idle_cycles,
                 activity_factor=round(result.activity_factor, 4))
    return result


def _drive_loop(engine: SpZipEngine, request: DriveRequest
                ) -> Tuple[int, Dict[str, List[Entry]]]:
    """The drive loop; cycle-identical to the literal per-cycle loop.

    Each iteration executes exactly one hardware cycle: the core's
    enqueues, one engine cycle (:meth:`SpZipEngine.tick`), the core's
    dequeues and the finished check.  A cycle that fed nothing, fired
    nothing, delivered nothing and dequeued nothing leaves all state
    untouched, so every later cycle before the next access-unit
    completion is provably identical; :func:`skip_frozen` jumps the
    clock there and books the gap as idle cycles.
    """
    pending: Dict[str, List[Feed]] = {
        name: list(items) for name, items in request.feeds.items()
    }
    outputs: Dict[str, List[Entry]] = {name: [] for name in request.consume}
    dequeues_per_cycle = request.dequeues_per_cycle
    max_cycles = request.max_cycles
    queues = engine.queues
    consume_queues = [queues[name] for name in outputs]
    consume_pairs = [(name, queues[name]) for name in outputs]
    inflight = engine._inflight
    tick = engine.tick
    frozen = (engine,)
    start = engine.cycle
    feeds_done = not any(pending.values())
    while True:
        progressed = False
        # Core enqueues (one enqueue instruction per input queue per cycle).
        if not feeds_done:
            for name, items in pending.items():
                if items and engine.enqueue(name, items[0].value,
                                            items[0].marker):
                    items.pop(0)
                    progressed = True
            feeds_done = not any(pending.values())
        if tick():
            progressed = True
        # Core dequeues.
        budget = dequeues_per_cycle
        for name, queue in consume_pairs:
            while budget > 0:
                entry = queue.try_pop()
                if entry is None:
                    break
                outputs[name].append(entry)
                budget -= 1
                progressed = True
        # ``not inflight`` is implied by is_drained(); checking it first
        # keeps the finished test O(1) on the overwhelmingly common
        # not-finished cycles.
        if (feeds_done and not inflight and engine.is_drained()
                and all(q.is_empty for q in consume_queues)):
            break
        if not progressed:
            skip_frozen(frozen)
        if engine.cycle - start > max_cycles:
            raise EngineStall(f"exceeded {max_cycles} cycles")
    return engine.cycle - start, outputs
