"""The orchestrating runner: a drop-in ``Runner`` backed by the jobs
layer.

:class:`JobRunner` subclasses :class:`~repro.sim.runner.Runner`, so
every experiment function keeps its signature and behaviour.  What
changes is where results come from:

1. results prefetched through :meth:`prefetch` (parallel, cached);
2. otherwise the content-addressed disk cache;
3. otherwise the runner's stage pricer, bound to the same store, which
   reuses any frozen stage artifacts and then populates the cell-level
   cache.

The inherited ``profiles`` reads through that same pricer, so
experiments that inspect raw profiles (sorting) load the artifacts the
pool just stored instead of re-profiling in the parent.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional

from repro.config import SystemConfig
from repro.jobs.cache import NullCache, ResultCache, StoreConfig
from repro.jobs.executor import JobExecutor
from repro.jobs.fingerprint import job_fingerprint
from repro.jobs.model import (
    RunRequest,
    build_job_graph,
    canonical_request,
    params_to_kwargs,
)
from repro.jobs.telemetry import (
    JobRecord,
    TelemetryWriter,
    default_telemetry_path,
)
from repro.sim.metrics import RunMetrics
from repro.sim.runner import Runner


class JobRunner(Runner):
    """Memoizing runner whose results flow through the job layer."""

    def __init__(self, scale: int = None,  # type: ignore[assignment]
                 system: Optional[SystemConfig] = None,
                 jobs: int = 1,
                 cache_dir: Optional[str] = None,
                 telemetry_path: Optional[str] = None,
                 timeout: Optional[float] = None,
                 retries: int = 1,
                 progress: Optional[Callable[[str], None]] = None,
                 partitions: int = 1
                 ) -> None:
        if scale is None:
            from repro.graph.datasets import DEFAULT_SCALE
            scale = DEFAULT_SCALE
        super().__init__(scale=scale, system=system)
        self.jobs = jobs
        self.partitions = partitions
        self.cache = ResultCache(cache_dir) if cache_dir else \
            NullCache()
        self.store = StoreConfig.from_cache(
            self.cache, stream_partitions=partitions)
        if telemetry_path is None and cache_dir:
            telemetry_path = default_telemetry_path(cache_dir)
        self.telemetry_path = telemetry_path
        self.timeout = timeout
        self.retries = retries
        self.progress = progress
        self._results: Dict[RunRequest, RunMetrics] = {}
        self._telemetry: Optional[TelemetryWriter] = None

    # -- orchestration -----------------------------------------------------

    def _writer(self) -> TelemetryWriter:
        """One telemetry stream shared by every prefetch/run of this
        runner, so a whole report lands in a single JSONL file."""
        if self._telemetry is None:
            from repro.obs import TRACER
            self._telemetry = TelemetryWriter(path=self.telemetry_path,
                                              tracer=TRACER)
        return self._telemetry

    def prefetch(self, requests: Iterable[RunRequest]) -> int:
        """Execute (or load from cache) a batch of requests up front.

        Returns the number of requests now resident in memory.
        """
        todo = [r for r in requests if r not in self._results]
        if todo:
            executor = JobExecutor(
                scale=self.scale, system=self.system, jobs=self.jobs,
                cache=self.cache, telemetry=self._writer(),
                timeout=self.timeout, retries=self.retries,
                progress=self.progress, partitions=self.partitions)
            self._results.update(executor.run(todo))
        return len(self._results)

    # -- Runner interface --------------------------------------------------

    def run(self, app: str, scheme, dataset: str,
            preprocessing: str = "none", **kwargs) -> RunMetrics:
        # Canonicalization folds ablation kwargs into the scheme name,
        # so `run(..., "phi+spzip", parts=...)` and the equivalent
        # bracket string share one request, memo entry, and cache key.
        request = canonical_request(app, scheme, dataset, preprocessing,
                                    **kwargs)
        hit = self._results.get(request)
        if hit is not None:
            return hit
        # Disk cache, then the inherited in-process path.
        graph = build_job_graph([request])
        job = graph.jobs[graph.request_jobs[request]]
        key = job_fingerprint(job, self.scale, self.system)
        metrics = self.cache.get(key)
        if metrics is None:
            # Miss path prices through the pricer bound to the same
            # store, so partial work (frozen streams, replays) survives
            # even when the cell-level key missed.
            metrics = self._stage_pricer().price(
                app, request.scheme, dataset, preprocessing,
                **params_to_kwargs(request.params))
            self.cache.put(key, metrics)
            status = "miss"
        else:
            status = "hit"
        if self.telemetry_path:
            self._writer().record(JobRecord(
                job_id=job.job_id, kind="price", status=status,
                app=app, dataset=dataset, preprocessing=preprocessing,
                scheme=request.scheme, cache_key=key))
        self._results[request] = metrics
        return metrics
