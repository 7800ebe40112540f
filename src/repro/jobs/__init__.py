"""Parallel experiment orchestration: cells grouped by identity,
process-pool execution, content-addressed result caching, and run
telemetry.

Layering (each module only imports downward):

``model``        the cell (``RunRequest``) in canonical form, and its
                 grouping by identity
``fingerprint``  content-addressed cache keys (code-salted)
``cache``        the on-disk pickle store
``telemetry``    per-job ``jobs.job`` spans of a run and their summaries
``executor``     group tasks, the one dispatcher (in-process or on a
                 process pool, for reports and the server) and batch
                 execution
``orchestrator`` the runner experiments price through (``JobRunner``)
"""

from repro.jobs.cache import DEFAULT_CACHE_DIR, NullCache, ResultCache
from repro.jobs.executor import (
    JobExecutionError,
    JobExecutor,
    execute_group,
)
from repro.jobs.fingerprint import code_salt, job_fingerprint
from repro.jobs.model import RunRequest, canonical_request
from repro.jobs.orchestrator import JobRunner
from repro.jobs.telemetry import (
    TelemetryWriter,
    default_telemetry_path,
    latest_telemetry,
    render_summary,
    summarize,
)

__all__ = [
    "DEFAULT_CACHE_DIR",
    "JobExecutionError",
    "JobExecutor",
    "JobRunner",
    "NullCache",
    "ResultCache",
    "RunRequest",
    "TelemetryWriter",
    "canonical_request",
    "code_salt",
    "default_telemetry_path",
    "execute_group",
    "job_fingerprint",
    "latest_telemetry",
    "render_summary",
    "summarize",
]
