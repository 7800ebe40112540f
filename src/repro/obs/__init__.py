"""Unified observability: hierarchical tracing spans and event counts,
JSONL trace export, and perf-baseline regression diffing.

``span``   the :class:`Tracer` / :class:`Span` core and the module-level
           :data:`TRACER` every instrumented subsystem records spans and
           counts into
``trace``  trace-file IO: read, per-name summaries
``diff``   ``BENCH_*.json`` / trace comparison behind ``repro perf diff``

See docs/OBSERVABILITY.md for the span model and trace schema.
"""

from repro.obs.diff import (
    Regression,
    diff_timings,
    is_timing_key,
    load_timings,
    perf_diff,
    render_diff,
)
from repro.obs.span import (
    Span,
    Tracer,
    TRACER,
    summarize_spans,
)
from repro.obs.trace import (
    read_trace,
    render_spans,
    render_trace_summary,
    spans_by_parent,
    trace_summary,
)

__all__ = [
    "Regression",
    "Span",
    "TRACER",
    "Tracer",
    "diff_timings",
    "is_timing_key",
    "load_timings",
    "perf_diff",
    "read_trace",
    "render_diff",
    "render_spans",
    "render_trace_summary",
    "spans_by_parent",
    "summarize_spans",
    "trace_summary",
]
