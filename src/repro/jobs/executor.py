"""Job-graph execution: serial or process-pool, with retries.

The unit of dispatch is a *group* — one profile job plus every price
job that depends on it (:meth:`~repro.jobs.model.JobGraph.groups`).
Executing a whole group inside one worker keeps the shared profiling
pass in that worker's memory: only the job specs travel to the worker
and only small :class:`~repro.sim.metrics.RunMetrics` records travel
back, so the expensive workload/profile structures never need to cross
a process boundary (though they can — see
``tests/test_jobs_pickle.py``).

Execution policy:

* ``jobs == 1`` runs everything in-process on one shared
  :class:`~repro.stages.StagePricer` (no pool, no pickling);
* ``jobs > 1`` uses a ``ProcessPoolExecutor``; each worker memoizes one
  StagePricer per (scale, system, store config) so successive groups on
  the same worker reuse its profile bundles, and all workers share the
  dispatcher's content-addressed stage store;
* a group that fails or times out is retried up to ``retries`` times,
  then re-run in-process as a last resort (which also transparently
  covers payloads the pool cannot pickle);
* per-job cache lookups happen before dispatch, so a warm-cache run
  dispatches nothing and profiles nothing;
* the process that prices a cell stores it (:func:`execute_group`), so
  pool workers write their cells in parallel while the pool runs and
  the dispatcher only reads the store;
* pool tasks run :func:`execute_group_remote`, which sends the worker's
  :data:`~repro.obs.TRACER` count delta, and its spans when the
  dispatcher was tracing at submit time, home with the outcomes;
  :func:`record_dispatch` merges them, so the ``stages:`` progress line
  and the trace cover pool work like in-process work.

Results are returned keyed by :class:`~repro.jobs.model.RunRequest`
in deterministic (request-insertion) order regardless of completion
order.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor, TimeoutError as \
    FutureTimeout
from typing import Callable, Dict, List, Optional, Tuple

from repro.config import SystemConfig
from repro.jobs.cache import StoreConfig
from repro.jobs.fingerprint import job_fingerprint
from repro.jobs.model import JobGraph, JobSpec, RunRequest, build_job_graph
from repro.jobs.telemetry import TelemetryWriter
from repro.obs import TRACER, Span
from repro.sim.metrics import RunMetrics

#: One executed job coming back from a worker:
#: (job_id, result or None, wall seconds, worker pid, error string).
JobOutcome = Tuple[str, Optional[RunMetrics], float, int, str]

#: What a pool task sends home: (outcomes, count delta, spans).
RemoteResult = Tuple[List[JobOutcome], Dict[str, int], List[Span]]

#: Per-process StagePricer memo, keyed by (scale, system, store
#: config): successive groups on one process — a pool worker, or the
#: dispatcher running groups in-process — reuse its in-memory profile
#: bundles, as does a :class:`~repro.jobs.orchestrator.JobRunner`
#: pricing in the same process; when the store has a root, every
#: process reads/writes the same content-addressed stage store.
_PRICERS: Dict[Tuple[int, Optional[SystemConfig], Optional[StoreConfig]],
               object] = {}


def pricer_for(scale: int, system: Optional[SystemConfig],
               store: Optional[StoreConfig]):
    """This process's :class:`~repro.stages.StagePricer` for one model
    configuration and store."""
    from repro.stages import StagePricer
    key = (scale, system, store)
    if key not in _PRICERS:
        _PRICERS[key] = StagePricer(scale=scale, system=system,
                                    store=store)
    return _PRICERS[key]


def execute_group(scale: int, system: Optional[SystemConfig],
                  profile: JobSpec, prices: List[JobSpec],
                  store: Optional[StoreConfig] = None) -> List[JobOutcome]:
    """Run one profile job and its price jobs on this process's pricer.

    Module-level so the process pool can pickle it by reference; also
    the serial path's implementation.  Failures are captured per job so
    one bad configuration cannot take down its group's siblings.
    ``store`` carries the dispatching process's resolved
    :class:`~repro.jobs.cache.StoreConfig` — cache root, stream
    partition count — so stage artifacts persist across workers and
    runs (a rootless store keeps them in worker memory only).  Each
    priced cell is stored here, under the same
    :func:`~repro.jobs.fingerprint.job_fingerprint` key the dispatcher
    looks up; nothing else writes it.

    Every path reaches :func:`_execute_group` through this module's
    globals, so a wrapper installed there (perfbench's layer trace)
    sees every group.
    """
    return _execute_group(scale, system, profile, prices, store)


def execute_group_remote(scale: int, system: Optional[SystemConfig],
                         profile: JobSpec, prices: List[JobSpec],
                         store: Optional[StoreConfig] = None,
                         traced: bool = False) -> RemoteResult:
    """:func:`execute_group` as a pool task: its outcomes, the change in
    this process's :data:`~repro.obs.TRACER` counts, and — when
    ``traced`` (the dispatcher was recording at submit time) — the
    spans the group recorded.

    A pool worker runs one task at a time, so the change is exactly
    this group's work.  Only the delta travels (a forked worker starts
    with a copy of its parent's counts).  The dispatcher hands the
    result to :func:`record_dispatch`.  In-process callers run
    :func:`execute_group` itself: their counts and spans are already
    in place.
    """
    before = Counter(TRACER.counts())
    if traced:
        TRACER.start()  # a fresh span list and nesting stack
    try:
        outcomes = execute_group(scale, system, profile, prices, store)
    finally:
        if traced:
            TRACER.stop()
    return (outcomes, dict(Counter(TRACER.counts()) - before),
            TRACER.spans if traced else [])


def record_dispatch(profile: JobSpec, start_s: float, attempts: int,
                    results: List[RemoteResult]) -> None:
    """Bring one group dispatch's pool results into this process.

    Merges the count delta of every result received, attempts that
    were retried included.  While tracing, also records the dispatch's
    ``jobs.task`` envelope (submit at ``start_s`` to now: queue wait
    and every attempt) and adopts the results' worker spans beneath it.
    """
    for _outcomes, counts, _spans in results:
        TRACER.merge_counts(counts)
    if not TRACER.active:
        return
    task = TRACER.manual_span(
        "jobs.task", time.monotonic() - start_s, start_s=start_s,
        job_id=profile.job_id, app=profile.app, dataset=profile.dataset,
        preprocessing=profile.preprocessing, attempts=attempts)
    for _outcomes, _counts, spans in results:
        TRACER.adopt(spans, task.span_id)


def _execute_group(scale: int, system: Optional[SystemConfig],
                   profile: JobSpec, prices: List[JobSpec],
                   store: Optional[StoreConfig] = None
                   ) -> List[JobOutcome]:
    pricer = pricer_for(scale, system, store)
    pid = os.getpid()
    outcomes: List[JobOutcome] = []
    with TRACER.span("jobs.group", job_id=profile.job_id,
                     app=profile.app, dataset=profile.dataset,
                     preprocessing=profile.preprocessing):
        # Durations use the monotonic clock: wall-clock (time.time) can
        # jump under NTP adjustment, producing negative or wildly wrong
        # job times.
        start = time.monotonic()
        try:
            with TRACER.span("jobs.profile", job_id=profile.job_id,
                             app=profile.app, dataset=profile.dataset,
                             preprocessing=profile.preprocessing):
                pricer.ensure(profile.app, profile.dataset,
                              profile.preprocessing)
            outcomes.append((profile.job_id, None,
                             time.monotonic() - start, pid, ""))
        except Exception as exc:  # profiling failed: poisons the group
            wall = time.monotonic() - start
            outcomes.append((profile.job_id, None, wall, pid,
                             repr(exc)))
            for job in prices:
                outcomes.append((job.job_id, None, 0.0, pid, repr(exc)))
            return outcomes
        for job in prices:
            start = time.monotonic()
            try:
                with TRACER.span("jobs.price", job_id=job.job_id,
                                 app=job.app, scheme=job.scheme,
                                 dataset=job.dataset,
                                 preprocessing=job.preprocessing):
                    metrics = pricer.price(job.app, job.scheme,
                                           job.dataset,
                                           job.preprocessing)
                pricer.cache.put(
                    job_fingerprint(job, scale, pricer.system), metrics)
                outcomes.append((job.job_id, metrics,
                                 time.monotonic() - start, pid, ""))
            except Exception as exc:
                outcomes.append((job.job_id, None,
                                 time.monotonic() - start, pid,
                                 repr(exc)))
    return outcomes


class JobExecutionError(RuntimeError):
    """A job failed after exhausting its retries and the fallback."""


class JobExecutor:
    """Executes a job graph against one model configuration."""

    def __init__(self, scale: int,
                 system: Optional[SystemConfig] = None,
                 jobs: int = 1,
                 store: Optional[StoreConfig] = None,
                 telemetry: Optional[TelemetryWriter] = None,
                 timeout: Optional[float] = None,
                 retries: int = 1,
                 progress: Optional[Callable[[str], None]] = None
                 ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.scale = scale
        self.system = system
        self.jobs = jobs
        # Workers read/write stage artifacts through the same
        # content-addressed store that holds final cell results; the
        # one StoreConfig crosses the pool boundary verbatim.
        self.store = store if store is not None else StoreConfig()
        self.telemetry = telemetry if telemetry is not None \
            else TelemetryWriter(path=None)
        self.timeout = timeout
        self.retries = retries
        self._progress = progress or (lambda _msg: None)

    # -- cache bookkeeping ------------------------------------------------

    @property
    def cache(self):
        """The store's result cache: the one this process's pricer for
        the executor's configuration reads and writes."""
        return pricer_for(self.scale, self.system, self.store).cache

    def _fingerprint(self, job: JobSpec) -> str:
        system = self.system if self.system is not None \
            else SystemConfig().scaled(self.scale)
        return job_fingerprint(job, self.scale, system)

    def _lookup(self, graph: JobGraph) -> Tuple[
            Dict[str, RunMetrics], Dict[str, str]]:
        """Pre-dispatch cache pass: (hits by job id, key by job id)."""
        cache = self.cache
        hits: Dict[str, RunMetrics] = {}
        keys: Dict[str, str] = {}
        for job in graph.price_jobs:
            keys[job.job_id] = key = self._fingerprint(job)
            cached = cache.get(key)
            if cached is not None:
                hits[job.job_id] = cached
        return hits, keys

    # -- execution --------------------------------------------------------

    def run(self, requests: List[RunRequest]
            ) -> Dict[RunRequest, RunMetrics]:
        """Execute all requests; returns results in request order.

        The run's telemetry records reach the file in one append, also
        when the run raises.
        """
        # Store errors (corrupt entries, failed writes) are survivable
        # but must not vanish.  The pricer, and so its cache, is shared
        # by every executor and runner on this configuration in this
        # process, so point its error channel at this run's progress.
        self.cache.on_error = self._progress
        with TRACER.span("jobs.run", requests=len(requests),
                         workers=self.jobs), self.telemetry.batch():
            return self._run(requests)

    def _run(self, requests: List[RunRequest]
             ) -> Dict[RunRequest, RunMetrics]:
        start = time.monotonic()
        first = len(self.telemetry.records)
        graph = build_job_graph(requests)
        hits, keys = self._lookup(graph)
        results: Dict[str, RunMetrics] = dict(hits)

        pending: List[Tuple[JobSpec, List[JobSpec]]] = []
        for profile, prices in graph.groups():
            missing = [j for j in prices if j.job_id not in hits]
            for job in prices:
                if job.job_id in hits:
                    self.telemetry.record(job, "hit",
                                          cache_key=keys[job.job_id])
            if missing:
                pending.append((profile, missing))
            else:
                self.telemetry.record(profile, "skipped")
        if pending:
            from repro.stages import stage_counters
            before = Counter(stage_counters())
            if self.jobs == 1 or len(pending) == 1:
                outcomes = self._run_serial(pending)
            else:
                outcomes = self._run_pool(pending)
            self._absorb(outcomes, graph.jobs, keys, results)
            # Pool workers' counts were merged as their groups came
            # back, so this covers every process that did the work.
            delta = Counter(stage_counters()) - before
            if delta:
                self._progress("stages: " + ", ".join(
                    f"{k}={v}" for k, v in sorted(delta.items())))

        statuses = Counter(span.attrs["status"]
                           for span in self.telemetry.records[first:])
        self._progress(
            f"jobs: {sum(statuses.values())} total, {statuses['hit']} "
            f"cache hits, {statuses['miss']} executed, "
            f"{time.monotonic() - start:.1f}s")
        return {request: results[job_id]
                for request, job_id in graph.request_jobs.items()}

    def _absorb(self, outcomes: Dict[str, Tuple[JobOutcome, int]],
                jobs: Dict[str, JobSpec], keys: Dict[str, str],
                results: Dict[str, RunMetrics]) -> None:
        """Record telemetry, collect results, surface failures.

        The cells are already stored: the process that priced each one
        wrote it (:func:`execute_group`).
        """
        failed: List[str] = []
        for job_id in sorted(outcomes):
            (jid, metrics, wall, pid, error), retries = outcomes[job_id]
            job = jobs[jid]
            self.telemetry.record(
                job, "failed" if error else "miss", wall,
                retries=retries, worker_pid=pid, error=error,
                cache_key=keys.get(jid, ""))
            if error and job.kind == "price":
                failed.append(f"{jid}: {error}")
            if metrics is not None:
                results[jid] = metrics
        if failed:
            raise JobExecutionError(
                "jobs failed after retries:\n  " + "\n  ".join(failed))

    def _group_has_failure(self, group: List[JobOutcome]) -> bool:
        return any(error for _jid, _m, _w, _p, error in group)

    def _run_serial(self, pending) -> Dict[str, Tuple[JobOutcome, int]]:
        """In-process execution with bounded per-group retry."""
        outcomes: Dict[str, Tuple[JobOutcome, int]] = {}
        for index, (profile, prices) in enumerate(pending):
            attempt = 0
            group = execute_group(self.scale, self.system, profile,
                                  prices, self.store)
            while self._group_has_failure(group) and \
                    attempt < self.retries:
                attempt += 1
                group = execute_group(self.scale, self.system, profile,
                                      prices, self.store)
            for outcome in group:
                outcomes[outcome[0]] = (outcome, attempt)
            self._progress(f"group {index + 1}/{len(pending)}: "
                           f"{profile.job_id}")
        return outcomes

    def _run_pool(self, pending) -> Dict[str, Tuple[JobOutcome, int]]:
        """Process-pool execution; per-group timeout, retry, fallback."""
        outcomes: Dict[str, Tuple[JobOutcome, int]] = {}
        try:
            pool = ProcessPoolExecutor(max_workers=self.jobs)
        except (OSError, ValueError) as exc:  # e.g. sandboxed /dev/shm
            self._progress(f"process pool unavailable ({exc!r}); "
                           f"running {len(pending)} group(s) serially")
            return self._run_serial(pending)

        def submit(profile: JobSpec, prices: List[JobSpec]):
            return pool.submit(execute_group_remote, self.scale,
                               self.system, profile, prices, self.store,
                               TRACER.active)

        done_groups = 0
        timed_out = False
        try:
            # future -> (profile, prices, attempt, submit time, the
            # results of the group's earlier attempts)
            futures = {}
            for profile, prices in pending:
                futures[submit(profile, prices)] = (
                    profile, prices, 0, time.monotonic(), [])
            while futures:
                future = next(iter(futures))
                profile, prices, attempt, start_s, results = \
                    futures.pop(future)
                group: Optional[List[JobOutcome]] = None
                try:
                    results.append(future.result(timeout=self.timeout))
                    group = results[-1][0]
                    if self._group_has_failure(group) and \
                            attempt < self.retries:
                        group = None  # retry the whole group
                except FutureTimeout:
                    timed_out = True
                    future.cancel()
                    self._progress(
                        f"group {profile.job_id}: timed out after "
                        f"{self.timeout}s (attempt {attempt + 1})")
                except Exception as exc:
                    # Broken pool, unpicklable payload/result, worker
                    # death: handled below by retry/local fallback.
                    self._progress(f"group {profile.job_id}: worker "
                                   f"failed with {exc!r} "
                                   f"(attempt {attempt + 1})")
                if group is None:
                    if attempt < self.retries:
                        try:
                            futures[submit(profile, prices)] = (
                                profile, prices, attempt + 1, start_s,
                                results)
                            continue
                        except Exception as exc:  # pool unusable
                            self._progress(
                                f"group {profile.job_id}: pool resubmit "
                                f"failed with {exc!r}; running "
                                f"in-process")
                    group = execute_group(self.scale, self.system,
                                          profile, prices,
                                          self.store)
                    attempt += 1
                for outcome in group:
                    outcomes[outcome[0]] = (outcome, attempt)
                done_groups += 1
                record_dispatch(profile, start_s, attempt + 1, results)
                self._progress(f"group {done_groups}/{len(pending)}: "
                               f"{profile.job_id}")
        finally:
            # cancel() cannot stop a running task, and shutdown leaves
            # its worker running: a hung group would keep the
            # interpreter from exiting.  So after a timeout, stop the
            # workers (once the loop is done, every group has its
            # outcome).
            workers = list((pool._processes or {}).values()) \
                if timed_out else []
            pool.shutdown(wait=False)
            for worker in workers:
                worker.kill()
                worker.join()
            # Drop shared-graph mappings along with the pool.
            from repro.graph.shared import release_graphs
            release_graphs()
        return outcomes
