"""The orchestrating runner: a drop-in ``Runner`` backed by the jobs
layer.

:class:`JobRunner` subclasses :class:`~repro.sim.runner.Runner`, so
every experiment function keeps its signature and behaviour.  What
changes is where results come from:

1. results prefetched through :meth:`prefetch` (parallel, cached);
2. otherwise the content-addressed disk cache;
3. otherwise the stage pricer this process's in-process groups use
   (:func:`~repro.jobs.executor.pricer_for`), bound to the same store,
   which reuses the bundles an in-process prefetch built and any frozen
   stage artifacts, and then populates the cell-level cache.

The inherited ``profiles`` reads through that same pricer, so
experiments that inspect raw profiles (sorting) reuse what a prefetch
built or the pool stored instead of re-profiling in the parent.  The
pricer's store is the runner's :attr:`~JobRunner.cache`, so a corrupt
stage artifact is reported wherever a corrupt cell is.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional

from repro.config import SystemConfig
from repro.jobs.cache import StoreConfig
from repro.jobs.executor import JobExecutor, pricer_for
from repro.jobs.fingerprint import job_fingerprint
from repro.jobs.model import RunRequest, build_job_graph, canonical_request
from repro.jobs.telemetry import TelemetryWriter, default_telemetry_path
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
        self.store = StoreConfig(root=cache_dir or None,
                                 stream_partitions=partitions)
        if telemetry_path is None and cache_dir:
            telemetry_path = default_telemetry_path(cache_dir)
        self.telemetry_path = telemetry_path
        self.timeout = timeout
        self.retries = retries
        self.progress = progress
        self._results: Dict[RunRequest, RunMetrics] = {}
        self._telemetry: Optional[TelemetryWriter] = None

    def _stage_pricer(self):
        return pricer_for(self.scale, self.system, self.store)

    @property
    def cache(self):
        """The result cache: the stage pricer's own (NullCache when
        disk-less)."""
        return self._stage_pricer().cache

    # -- orchestration -----------------------------------------------------

    def _writer(self) -> TelemetryWriter:
        """One telemetry stream shared by every prefetch/run of this
        runner, so a whole report lands in a single JSONL file."""
        if self._telemetry is None:
            self._telemetry = TelemetryWriter(path=self.telemetry_path)
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
                app, request.scheme, dataset, preprocessing)
            self.cache.put(key, metrics)
            status = "miss"
        else:
            status = "hit"
        if self.telemetry_path:
            self._writer().record(job, status, cache_key=key)
        self._results[request] = metrics
        return metrics
