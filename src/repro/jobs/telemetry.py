"""Run telemetry: every orchestrated job as a ``jobs.job`` span.

Each orchestrated run appends one file under
``<cache root>/telemetry/`` in the trace JSONL format
(:mod:`repro.obs.trace`): a ``trace_start`` header, then one
``jobs.job`` span per executed, cached or skipped job — a *price* job
per cell (:class:`~repro.jobs.model.RunRequest`), a *profile* job per
group's identity.  Its ``dur_s`` is the job's wall time; its
attributes name the job (``job_id``, ``kind``, ``app``, ``dataset``,
``preprocessing``, ``scheme``), its ``status`` (``hit`` | ``miss`` |
``skipped`` | ``failed``), ``retries``, ``worker_pid``, ``cache_key``
and ``error``.

The spans are the ones :data:`~repro.obs.TRACER` records, so a traced
run carries the same ``jobs.job`` spans in its trace.
``repro.obs.read_trace`` and ``repro perf summary`` read the file;
:func:`summarize` / :func:`render_summary` power ``python -m repro
jobs``.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import time
from typing import Dict, Iterator, List, Optional, Union

from repro.jobs.model import Identity, RunRequest, job_label
from repro.obs import TRACER, Span, read_trace

#: Job statuses, in reporting order.
STATUSES = ("hit", "miss", "skipped", "failed")


class TelemetryWriter:
    """Append-only span file for one orchestrated run; ``path=None``
    keeps the spans in :attr:`records` only.

    Each record is appended as it is made, except inside :meth:`batch`.
    The header's ``mono_epoch`` marks the run's start: durations use
    the monotonic clock, which cannot run backwards under NTP slew.
    """

    def __init__(self, path: Optional[str]) -> None:
        self.path = path
        self.records: List[Span] = []
        self._written = 0  # records already in the file
        self._deferred = False
        wall = time.time()
        self._header = {"event": "trace_start",
                        "trace_id": f"run-{int(wall)}-{os.getpid()}",
                        "wall_epoch": wall, "mono_epoch": time.monotonic(),
                        "pid": os.getpid()}

    def record(self, cell: Union[RunRequest, Identity], status: str,
               wall_s: float = 0.0, retries: int = 0,
               worker_pid: int = 0, cache_key: str = "",
               error: str = "") -> None:
        """Record a cell's price job, or an identity's profile job."""
        price = isinstance(cell, RunRequest)
        app, dataset, preprocessing = cell.profile_key if price else cell
        span = TRACER.manual_span(
            "jobs.job", wall_s, job_id=job_label(cell),
            kind="price" if price else "profile", status=status,
            app=app, dataset=dataset, preprocessing=preprocessing,
            scheme=cell.scheme if price else "", retries=retries,
            worker_pid=worker_pid, cache_key=cache_key, error=error)
        self.records.append(span)
        if not self._deferred:
            self._flush()

    @contextlib.contextmanager
    def batch(self) -> Iterator[None]:
        """Hold the records made inside for one append at exit, also
        when the body raises: one file open per executor run instead
        of one per job."""
        self._deferred = True
        try:
            yield
        finally:
            self._deferred = False
            self._flush()

    def _flush(self) -> None:
        if not self.path or self._written == len(self.records):
            return
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        with open(self.path, "a") as handle:
            if not self._written:
                handle.write(json.dumps(self._header, sort_keys=True)
                             + "\n")
            for span in self.records[self._written:]:
                handle.write(span.to_json() + "\n")
        self._written = len(self.records)


def telemetry_dir(cache_root: str) -> str:
    return os.path.join(cache_root, "telemetry")


_RUN_COUNTER = itertools.count()


def default_telemetry_path(cache_root: str) -> str:
    """Fresh per-run JSONL path under the cache root."""
    stamp = f"{int(time.time())}-{os.getpid()}-{next(_RUN_COUNTER)}"
    return os.path.join(telemetry_dir(cache_root),
                        f"run-{stamp}.jsonl")


def latest_telemetry(cache_root: str) -> Optional[str]:
    """Most recently modified telemetry file, if any."""
    directory = telemetry_dir(cache_root)
    try:
        candidates = [os.path.join(directory, name)
                      for name in os.listdir(directory)
                      if name.endswith(".jsonl")]
    except FileNotFoundError:
        return None
    return max(candidates, key=os.path.getmtime, default=None)


def summarize(path: str) -> Dict[str, object]:
    """Aggregate one telemetry file into summary counters.

    The hit rate is over price-job lookups only: profile jobs never
    consult the result cache.
    """
    header, spans = read_trace(path)
    jobs = [span for span in spans if span.name == "jobs.job"]
    counts = {status: 0 for status in STATUSES}
    for job in jobs:
        counts[job.attrs["status"]] += 1
    lookups = [job.attrs["status"] for job in jobs
               if job.attrs["kind"] == "price"]
    end = max((job.start_s + job.duration_s for job in jobs),
              default=0.0)
    return {
        "path": path,
        "jobs": len(jobs),
        "by_status": counts,
        "job_wall_s": sum(job.duration_s for job in jobs),
        "run_wall_s": max(0.0, end - float(header.get("mono_epoch",
                                                      end))),
        "retries": sum(int(job.attrs["retries"]) for job in jobs),
        "workers": len({job.attrs["worker_pid"] for job in jobs
                        if job.attrs["worker_pid"]}),
        "hit_rate": (lookups.count("hit") / len(lookups)
                     if lookups else 0.0),
        "slowest": sorted(jobs, key=lambda job: -job.duration_s)[:5],
    }


def render_summary(summary: Dict[str, object]) -> str:
    """Human-readable rendering of :func:`summarize`'s output."""
    counts: Dict[str, int] = summary["by_status"]  # type: ignore[assignment]
    lines = [
        f"telemetry: {summary['path']}",
        f"jobs:      {summary['jobs']} "
        f"({', '.join(f'{s}={counts.get(s, 0)}' for s in STATUSES)})",
        f"cache:     {100.0 * float(summary['hit_rate']):.0f}% hit rate",
        f"wall:      {float(summary['run_wall_s']):.2f}s run, "
        f"{float(summary['job_wall_s']):.2f}s in jobs, "
        f"{summary['workers']} worker(s), "
        f"{summary['retries']} retr(ies)",
    ]
    slowest: List[Span] = summary.get("slowest") or []  # type: ignore
    if slowest:
        lines.append("slowest jobs:")
        for job in slowest:
            lines.append(f"  {job.duration_s:7.2f}s  "
                         f"{job.attrs['status']:7s} "
                         f"{job.attrs['job_id']}")
    return "\n".join(lines)
