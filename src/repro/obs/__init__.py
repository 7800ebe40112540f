"""Unified observability: hierarchical tracing spans and event counts,
JSONL trace export, and trace-vs-trace timing diffs.

``span``   the :class:`Tracer` / :class:`Span` core and the module-level
           :data:`TRACER` every instrumented subsystem records spans and
           counts into
``trace``  trace-file IO: read, per-name summaries
``diff``   trace-vs-trace comparison behind ``repro perf diff``

See docs/OBSERVABILITY.md for the span model and trace schema.
"""

from repro.obs.diff import (
    Regression,
    diff_timings,
    load_timings,
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
    "load_timings",
    "read_trace",
    "render_diff",
    "render_spans",
    "render_trace_summary",
    "spans_by_parent",
    "summarize_spans",
    "trace_summary",
]
