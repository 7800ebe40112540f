"""Unified observability: hierarchical tracing spans and event counts,
and JSONL trace export.

``span``   the :class:`Tracer` / :class:`Span` core and the module-level
           :data:`TRACER` every instrumented subsystem records spans and
           counts into
``trace``  trace-file IO: read, per-name summaries

See docs/OBSERVABILITY.md for the span model and trace schema.
"""

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
)

__all__ = [
    "Span",
    "TRACER",
    "Tracer",
    "read_trace",
    "render_spans",
    "render_trace_summary",
    "spans_by_parent",
    "summarize_spans",
]
