"""Trace-vs-trace timing comparison behind ``repro perf diff``.

``python -m repro perf diff BASELINE --against CURRENT`` loads two span
traces (``--trace`` output, JSONL) into flat ``{metric: seconds}``
mappings, one ``trace_summary/<span name>/seconds`` metric per span
name, and flags every shared metric whose current value exceeds
``threshold x`` the baseline.  Only metrics present on both sides are
compared.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

#: Below this many seconds a metric is noise, not a regression signal.
MIN_BASELINE_SECONDS = 1e-6


@dataclass
class Regression:
    """One timing metric past the threshold."""

    metric: str
    baseline_s: float
    current_s: float

    @property
    def ratio(self) -> float:
        return self.current_s / max(self.baseline_s,
                                    MIN_BASELINE_SECONDS)


def load_timings(path: str) -> Dict[str, float]:
    """Flat ``{metric: seconds}`` view of one trace JSONL."""
    if not path.endswith(".jsonl"):
        raise ValueError(f"{path}: expected a span trace (.jsonl)")
    from repro.obs.trace import trace_summary
    return {f"trace_summary/{name}/seconds": stat["seconds"]
            for name, stat in trace_summary(path).items()}


def diff_timings(baseline: Dict[str, float], current: Dict[str, float],
                 threshold: float) -> Tuple[List[Regression], int]:
    """Regressions among shared metrics, plus how many were compared."""
    if threshold <= 1.0:
        raise ValueError("threshold must be > 1.0")
    shared = sorted(set(baseline) & set(current))
    regressions = [
        Regression(metric=metric, baseline_s=baseline[metric],
                   current_s=current[metric])
        for metric in shared
        if baseline[metric] >= MIN_BASELINE_SECONDS
        and current[metric] > threshold * baseline[metric]
    ]
    regressions.sort(key=lambda r: -r.ratio)
    return regressions, len(shared)


def render_diff(regressions: List[Regression], compared: int,
                threshold: float) -> str:
    lines = [f"perf diff: {compared} shared timing metric(s), "
             f"threshold {threshold:.2f}x"]
    if not regressions:
        lines.append("no regressions")
    for reg in regressions:
        lines.append(f"  REGRESSION {reg.ratio:5.2f}x  "
                     f"{reg.baseline_s:.6f}s -> {reg.current_s:.6f}s  "
                     f"{reg.metric}")
    return "\n".join(lines)
