"""Hierarchical tracing spans and event counts: the one instrument.

A *span* is a named, attributed interval with a parent — the trace is a
forest of spans covering everything a run did: one ``runner.cell`` span
per (app, scheme, input) simulation, profiling/pricing stages beneath
it, replay kernels beneath those, and job-orchestration spans around
the lot.  Durations use the monotonic clock; on Linux
``CLOCK_MONOTONIC`` is shared across processes, so spans recorded in
pool workers line up with the parent's timeline when adopted.

Spans are recorded only while the tracer is active (``--trace`` or
``--perf``); an inactive :meth:`Tracer.span` is a no-op.  Event counts
(:meth:`Tracer.count`, e.g. ``stage.stream.hit``) are always kept, in a
thread-safe table on the same object.  Everything else reads these two:
``--perf`` summarises the spans of an in-memory trace, the telemetry
file of a run holds its ``jobs.job`` spans, and ``/stats`` and the
executor's progress line report the counts.

Across processes: a pool task
(:func:`~repro.jobs.executor.execute_group_remote`) traces with its
worker's tracer when the dispatcher was recording at submit time, and
sends the spans home with the group's result, next to the worker's
count delta.  The dispatcher adds them with :meth:`Tracer.adopt`
beneath that dispatch's ``jobs.task`` span and merges the counts with
:meth:`Tracer.merge_counts`.  :class:`Span` is picklable for that trip.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import os
import threading
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from typing import ContextManager, Dict, List, Optional, Tuple

_IDS = itertools.count(1)

#: This process's pid, refreshed in a forked child: ``os.getpid`` is a
#: system call, and the active check runs on every span.
_PID = os.getpid()


def _after_fork() -> None:
    global _PID
    _PID = os.getpid()


os.register_at_fork(after_in_child=_after_fork)


def _new_span_id() -> str:
    return f"{_PID:x}.{next(_IDS):x}"


@dataclass
class Span:
    """One named interval in the trace."""

    # Slots: a span is created per recorded interval, on hot paths.
    __slots__ = ("name", "span_id", "parent_id", "start_s", "duration_s",
                 "pid", "attrs")
    name: str
    span_id: str
    parent_id: Optional[str]
    start_s: float  # raw time.monotonic() at entry
    duration_s: float
    pid: int
    attrs: Dict[str, object]

    def set(self, **attrs: object) -> None:
        """Attach attributes from inside the ``with`` block."""
        self.attrs.update(attrs)

    def to_json(self) -> str:
        return json.dumps(
            {"event": "span", "name": self.name, "span_id": self.span_id,
             "parent_id": self.parent_id, "start_s": self.start_s,
             "dur_s": self.duration_s, "pid": self.pid,
             "attrs": self.attrs},
            sort_keys=True, default=str)

    @classmethod
    def from_record(cls, record: Dict[str, object]) -> "Span":
        return cls(name=str(record["name"]),
                   span_id=str(record["span_id"]),
                   parent_id=(str(record["parent_id"])
                              if record.get("parent_id") else None),
                   start_s=float(record["start_s"]),
                   duration_s=float(record["dur_s"]),
                   pid=int(record.get("pid", 0)),
                   attrs=dict(record.get("attrs", {})))  # type: ignore[arg-type]


class _NullSpan(Span):
    """Shared sink yielded when the tracer is not recording."""

    def set(self, **attrs: object) -> None:  # noqa: ARG002
        pass


_DISCARD = _NullSpan(name="", span_id="", parent_id=None, start_s=0.0,
                     duration_s=0.0, pid=0, attrs={})

#: What an inactive tracer's :meth:`Tracer.span` returns.
_INACTIVE = nullcontext(_DISCARD)


class _Recording:
    """The ``with`` block of one span while the tracer records."""

    __slots__ = ("tracer", "name", "count", "attrs", "span", "token")

    def __init__(self, tracer: "Tracer", name: str, count: int,
                 attrs: Dict[str, object]) -> None:
        self.tracer = tracer
        self.name = name
        self.count = count
        self.attrs = attrs

    def __enter__(self) -> Span:
        stack_var = self.tracer._stack_var
        stack = stack_var.get()
        self.span = span = Span(
            self.name, _new_span_id(), stack[-1] if stack else None,
            time.monotonic(), 0.0, _PID, self.attrs)
        self.token = stack_var.set(stack + (span.span_id,))
        return span

    def __exit__(self, *_exc: object) -> None:
        span = self.span
        self.tracer._stack_var.reset(self.token)
        span.duration_s = time.monotonic() - span.start_s
        if self.count:
            span.attrs.setdefault("count", self.count)
        self.tracer.spans.append(span)


class Tracer:
    """Span recorder (nesting, JSONL export) and event-count table."""

    def __init__(self) -> None:
        self.trace_id: str = ""
        self.spans: List[Span] = []
        self._active = False
        self._owner_pid = 0
        self._wall_epoch = 0.0
        self._mono_epoch = 0.0
        # The nesting stack lives in a ContextVar, not a thread-local:
        # concurrent asyncio tasks (the serve front end handles many
        # requests on one event-loop thread) each see their own stack,
        # so interleaved awaits cannot cross-parent or mis-pop spans.
        # Threads still isolate too — each thread has its own context.
        self._stack_var: contextvars.ContextVar[Tuple[str, ...]] = \
            contextvars.ContextVar(f"repro-span-stack-{id(self)}",
                                   default=())
        self._counts: Counter = Counter()
        self._count_lock = threading.Lock()

    # -- lifecycle ---------------------------------------------------------

    @property
    def active(self) -> bool:
        """Recording, in *this* process (False in a forked child)."""
        return self._active and self._owner_pid == _PID

    def start(self, trace_id: Optional[str] = None) -> None:
        """Begin recording spans (idempotent per process)."""
        self._wall_epoch = time.time()
        self._mono_epoch = time.monotonic()
        self._owner_pid = os.getpid()
        self.trace_id = trace_id or \
            f"trace-{int(self._wall_epoch)}-{self._owner_pid}"
        self.spans = []
        # A forked pool worker inherits the parent's context — and with
        # it the span stack as of the fork.  Restarting must clear it,
        # or every worker span nests under a span from another process.
        self._stack_var.set(())
        self._active = True

    def stop(self) -> None:
        self._active = False

    @property
    def current_id(self) -> Optional[str]:
        stack = self._stack_var.get()
        return stack[-1] if stack else None

    # -- recording ---------------------------------------------------------

    def span(self, name: str, count: int = 0,
             **attrs: object) -> ContextManager[Span]:
        """Record a ``with`` block as a span (yields the :class:`Span`).

        A no-op while the tracer is inactive — the ``with`` yields a
        shared sink — which is why this is safe on hot paths.
        """
        if not self.active:
            return _INACTIVE
        return _Recording(self, name, count, attrs)

    def manual_span(self, name: str, duration_s: float,
                    start_s: Optional[float] = None,
                    parent_id: Optional[str] = None, count: int = 0,
                    **attrs: object) -> Span:
        """Record an interval whose timing was measured elsewhere
        (job records, pool dispatch envelopes).

        The span is returned either way; it joins the trace only while
        the tracer is recording.
        """
        if start_s is None:
            start_s = time.monotonic() - duration_s
        if count:
            attrs.setdefault("count", count)
        span = Span(name=name, span_id=_new_span_id(),
                    parent_id=parent_id if parent_id is not None
                    else self.current_id,
                    start_s=start_s, duration_s=duration_s,
                    pid=_PID, attrs=attrs)
        if self.active:
            self.spans.append(span)
        return span

    def adopt(self, spans: List[Span], parent_id: Optional[str]) -> None:
        """Add spans recorded in another process (a pool worker's).

        Their nesting is kept; their top-level spans go under
        ``parent_id``.
        """
        for span in spans:
            if span.parent_id is None:
                span.parent_id = parent_id
            self.spans.append(span)

    # -- event counts ------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to a named event count (always on, thread-safe)."""
        with self._count_lock:
            self._counts[name] += n

    def counts(self, prefix: str = "") -> Dict[str, int]:
        """Snapshot of the counts whose names start with ``prefix``."""
        with self._count_lock:
            return {name: n for name, n in self._counts.items()
                    if name.startswith(prefix)}

    def reset_counts(self, prefix: str = "") -> None:
        with self._count_lock:
            for name in [n for n in self._counts if n.startswith(prefix)]:
                del self._counts[name]

    def merge_counts(self, delta: Dict[str, int]) -> None:
        """Add counts made elsewhere (a pool worker's delta)."""
        with self._count_lock:
            self._counts.update(delta)

    # -- export ------------------------------------------------------------

    def header(self) -> Dict[str, object]:
        return {"event": "trace_start", "trace_id": self.trace_id,
                "wall_epoch": self._wall_epoch,
                "mono_epoch": self._mono_epoch, "pid": self._owner_pid}

    def save(self, path: str) -> int:
        """Write the full trace (header + spans, by start time)."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        spans = sorted(self.spans, key=lambda s: s.start_s)
        with open(path, "w") as handle:
            handle.write(json.dumps(self.header(), sort_keys=True) + "\n")
            for span in spans:
                handle.write(span.to_json() + "\n")
        return len(spans)

    # -- aggregation -------------------------------------------------------

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-name aggregate (calls, seconds, count), heaviest first."""
        return summarize_spans(self.spans)


def summarize_spans(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Aggregate spans by name (calls, seconds, count), heaviest first."""
    totals: Dict[str, Dict[str, float]] = {}
    for span in spans:
        stat = totals.setdefault(span.name,
                                 {"calls": 0, "seconds": 0.0, "count": 0})
        stat["calls"] += 1
        stat["seconds"] += span.duration_s
        stat["count"] += int(span.attrs.get("count", 0) or 0)
    return dict(sorted(totals.items(), key=lambda kv: -kv[1]["seconds"]))


#: The process-wide tracer every instrumented subsystem records into.
TRACER = Tracer()
