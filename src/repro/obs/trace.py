"""Trace file IO: read and summarize JSONL span traces.

A trace file is JSONL: one ``trace_start`` header line followed by one
``span`` line per span (see :class:`repro.obs.span.Span`).  One file
holds a whole run, pool workers' spans included; span ids embed the
producing pid, so ids never collide across processes.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from repro.obs.span import Span, summarize_spans


def read_trace(path: str) -> Tuple[Dict[str, object], List[Span]]:
    """Load one trace file: (header, spans).

    Tolerates a header-less file (returns an empty header).
    """
    header: Dict[str, object] = {}
    spans: List[Span] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            event = record.get("event")
            if event == "trace_start":
                header = record
            elif event == "span":
                spans.append(Span.from_record(record))
    return header, spans


def trace_summary(path: str) -> Dict[str, Dict[str, float]]:
    """Per-span-name aggregates of one trace file."""
    _header, spans = read_trace(path)
    return summarize_spans(spans)


def render_trace_summary(path: str) -> str:
    """Human-readable per-name table for ``python -m repro perf summary``."""
    header, spans = read_trace(path)
    return render_spans(
        f"trace: {path}"
        + (f", trace_id={header.get('trace_id')}" if header else ""),
        spans)


def render_spans(title: str, spans: List[Span]) -> str:
    """``title``, then ``spans`` aggregated per name, heaviest first:
    ``repro perf summary`` and the ``--perf`` report."""
    summary = summarize_spans(spans)
    lines = [title, f"spans: {len(spans)} across "
             f"{len({s.pid for s in spans})} process(es)"]
    if summary:
        lines.append("name                           seconds    calls"
                     "       count")
        for name, stat in summary.items():
            lines.append(f"{name:30s} {stat['seconds']:8.3f} "
                         f"{int(stat['calls']):8d} "
                         f"{int(stat['count']):11d}")
    return "\n".join(lines)


def spans_by_parent(spans: List[Span]) -> Dict[Optional[str], List[Span]]:
    """Index spans by parent id (children in start order)."""
    index: Dict[Optional[str], List[Span]] = {}
    for span in sorted(spans, key=lambda s: s.start_s):
        index.setdefault(span.parent_id, []).append(span)
    return index
