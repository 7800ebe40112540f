"""Group execution: one dispatcher runs groups of cells and
functional-engine walks, with retries.

The unit of dispatch is a *group* — one identity and the cells
(:class:`~repro.jobs.model.RunRequest`) that share its profile
(:func:`~repro.jobs.model.group_requests`).  Executing a whole group
inside one worker keeps the shared profiling pass in that worker's
memory: only the requests travel to the worker and only small
:class:`~repro.sim.metrics.RunMetrics` records travel back, so the
expensive workload/profile structures never need to cross a process
boundary (though they can — see ``tests/test_jobs_pickle.py``).

:class:`Dispatcher` is the one path from tasks to outcomes.  A task
is a group (:func:`execute_group`) or one Fig 21 walk
(:func:`execute_walk`); both return :data:`JobOutcome` records, and
every rule below holds for both.  :class:`JobExecutor` runs a report's
pending groups, and separately its missing walks, through one
dispatcher per batch; ``repro serve`` keeps one for its whole life and
calls it from its compute threads (:mod:`repro.serve.pool`).  Policy:

* with no pool (``--jobs 1``, the thread backend) a group runs on the
  calling thread, on this process's shared
  :class:`~repro.stages.StagePricer` (no pickling);
* with ``processes > 0`` a ``ProcessPoolExecutor`` of that many
  workers is forked at construction; each worker memoizes one
  StagePricer per (scale, system, store config) so successive groups on
  the same worker reuse its profile bundles, and all workers share the
  dispatcher's content-addressed stage store.  All of a run's groups
  are submitted at once and waited for in order;
* a group that fails or times out is retried up to ``retries`` times,
  then re-run in-process as a last resort (which also transparently
  covers payloads the pool cannot pickle);
* a pool that cannot start or breaks (a dead worker) is dropped, and
  its groups and every later one run on the calling thread, counted in
  :attr:`Dispatcher.fallbacks`;
* a worker ends itself once the process that started it is gone, and
  :meth:`Dispatcher.close` kills the workers after a group timed out;
* per-cell and per-walk cache lookups happen before dispatch, so a
  warm-cache run dispatches nothing, profiles nothing and walks nothing;
* the process that prices a cell stores it (:func:`execute_group`), so
  pool workers write their cells in parallel while the pool runs and
  the dispatcher only reads the store;
* pool tasks run :func:`execute_remote`, which sends the worker's
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
import threading
import time
from collections import Counter
from concurrent.futures import Future, ProcessPoolExecutor, \
    TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.config import SystemConfig
from repro.jobs.cache import StoreConfig
from repro.jobs.fingerprint import job_fingerprint
from repro.jobs.model import (
    Identity,
    RunRequest,
    WalkRequest,
    group_requests,
    job_label,
)
from repro.jobs.telemetry import TelemetryWriter
from repro.obs import TRACER, Span
from repro.sim.metrics import RunMetrics

#: One executed step coming back from a worker: (the cell priced, the
#: group's identity for its profile step, or the walk walked; metrics,
#: None or the walk's cycles; wall seconds; worker pid; error string).
JobOutcome = Tuple[Union[RunRequest, Identity, WalkRequest],
                   Union[RunMetrics, int, None], float, int, str]

#: What a pool task sends home: (outcomes, count delta, spans).
RemoteResult = Tuple[List[JobOutcome], Dict[str, int], List[Span]]

#: One group: an identity and its cells.
Group = Tuple[Identity, List[RunRequest]]

#: One dispatch: :func:`execute_group` and its (scale, system, identity,
#: cells, store), or :func:`execute_walk` and its (scale, system, walk,
#: store).  Either way ``args[2]`` is what progress and spans name the
#: task by.
Task = Tuple[Callable[..., List[JobOutcome]], tuple]

#: How long a new pool may take to answer its first, trivial task.
START_TIMEOUT_S = 30.0

#: Per-process StagePricer memo, keyed by (scale, system, store
#: config): successive groups on one process — a pool worker, or the
#: dispatcher running groups in-process — reuse its in-memory profile
#: bundles, as does a :class:`~repro.jobs.orchestrator.JobRunner`
#: pricing in the same process; when the store has a root, every
#: process reads/writes the same content-addressed stage store.
_PRICERS: Dict[Tuple[int, Optional[SystemConfig], Optional[StoreConfig]],
               object] = {}
_PRICERS_LOCK = threading.Lock()


def pricer_for(scale: int, system: Optional[SystemConfig],
               store: Optional[StoreConfig]):
    """This process's :class:`~repro.stages.StagePricer` for one model
    configuration and store, created once however many threads ask
    for it at the same time."""
    from repro.stages import StagePricer
    key = (scale, system, store)
    with _PRICERS_LOCK:
        pricer = _PRICERS.get(key)
        if pricer is None:
            pricer = _PRICERS[key] = StagePricer(
                scale=scale, system=system, store=store)
    return pricer


def _after_fork_in_child() -> None:
    """A fresh lock: one another thread held at the fork would never
    be released in the child."""
    global _PRICERS_LOCK
    _PRICERS_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_after_fork_in_child)


def execute_group(scale: int, system: Optional[SystemConfig],
                  identity: Identity, cells: List[RunRequest],
                  store: Optional[StoreConfig] = None) -> List[JobOutcome]:
    """Profile one identity and price its cells on this process's
    pricer: the only code that prices and stores a cell.

    Module-level so the process pool can pickle it by reference; also
    the serial path's implementation.  Returns the profile step's
    outcome, then each cell's.  Failures are captured per cell so one
    bad configuration cannot take down its group's siblings.
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
    return _execute_group(scale, system, identity, cells, store)


def execute_walk(scale: int, system: Optional[SystemConfig],
                 walk: WalkRequest,
                 store: Optional[StoreConfig] = None) -> List[JobOutcome]:
    """Walk one functional-engine walk on this process's pricer, which
    stores its cycles (:meth:`~repro.stages.StagePricer.traversal_cycles`).

    Module-level, like :func:`execute_group`, so the process pool can
    pickle it by reference.  A failing walk raises: in a worker that
    fails the pool attempt, which the dispatcher retries and then runs
    in-process, where it raises to the caller.
    """
    start = time.monotonic()
    cycles = pricer_for(scale, system, store).traversal_cycles(
        walk.dataset, walk.preprocessing, walk.config, walk.rows,
        walk.mem_latency)
    return [(walk, cycles, time.monotonic() - start, os.getpid(), "")]


def execute_remote(function: Callable[..., List[JobOutcome]],
                   args: tuple, traced: bool = False) -> RemoteResult:
    """One task (``function(*args)``) as a pool task: its outcomes, the
    change in this process's :data:`~repro.obs.TRACER` counts, and —
    when ``traced`` (the dispatcher was recording at submit time) — the
    spans the task recorded.

    A pool worker runs one task at a time, so the change is exactly
    this task's work.  Only the delta travels (a forked worker starts
    with a copy of its parent's counts).  The dispatcher hands the
    result to :func:`record_dispatch`.  In-process callers run the
    task's function itself: their counts and spans are already in
    place.
    """
    before = Counter(TRACER.counts())
    if traced:
        TRACER.start()  # a fresh span list and nesting stack
    try:
        outcomes = function(*args)
    finally:
        if traced:
            TRACER.stop()
    return (outcomes, dict(Counter(TRACER.counts()) - before),
            TRACER.spans if traced else [])


def record_dispatch(subject: Union[Identity, WalkRequest], start_s: float,
                    attempts: int, results: List[RemoteResult]) -> None:
    """Bring one dispatch's pool results into this process.

    Merges the count delta of every result received, attempts that
    were retried included.  While tracing, also records the dispatch's
    ``jobs.task`` envelope (submit at ``start_s`` to now: queue wait
    and every attempt) and adopts the results' worker spans beneath it.
    ``subject`` is the group's identity or the walk.
    """
    for _outcomes, counts, _spans in results:
        TRACER.merge_counts(counts)
    if not TRACER.active:
        return
    if isinstance(subject, WalkRequest):
        attrs = {"dataset": subject.dataset,
                 "preprocessing": subject.preprocessing}
    else:
        app, dataset, preprocessing = subject
        attrs = {"app": app, "dataset": dataset,
                 "preprocessing": preprocessing}
    task = TRACER.manual_span(
        "jobs.task", time.monotonic() - start_s, start_s=start_s,
        job_id=job_label(subject), attempts=attempts, **attrs)
    for _outcomes, _counts, spans in results:
        TRACER.adopt(spans, task.span_id)


def _execute_group(scale: int, system: Optional[SystemConfig],
                   identity: Identity, cells: List[RunRequest],
                   store: Optional[StoreConfig] = None
                   ) -> List[JobOutcome]:
    pricer = pricer_for(scale, system, store)
    pid = os.getpid()
    outcomes: List[JobOutcome] = []
    app, dataset, preprocessing = identity
    attrs = {"job_id": job_label(identity), "app": app,
             "dataset": dataset, "preprocessing": preprocessing}
    with TRACER.span("jobs.group", **attrs):
        # Durations use the monotonic clock: wall-clock (time.time) can
        # jump under NTP adjustment, producing negative or wildly wrong
        # job times.
        start = time.monotonic()
        try:
            with TRACER.span("jobs.profile", **attrs):
                pricer.bundle(app, dataset, preprocessing)
            outcomes.append((identity, None, time.monotonic() - start,
                             pid, ""))
        except Exception as exc:  # profiling failed: poisons the group
            wall = time.monotonic() - start
            outcomes.append((identity, None, wall, pid, repr(exc)))
            for cell in cells:
                outcomes.append((cell, None, 0.0, pid, repr(exc)))
            return outcomes
        for cell in cells:
            start = time.monotonic()
            try:
                with TRACER.span("jobs.price", job_id=job_label(cell),
                                 app=cell.app, scheme=cell.scheme,
                                 dataset=cell.dataset,
                                 preprocessing=cell.preprocessing):
                    metrics = pricer.price(cell.app, cell.scheme,
                                           cell.dataset,
                                           cell.preprocessing)
                pricer.cache.put(
                    job_fingerprint(cell, scale, pricer.system), metrics)
                outcomes.append((cell, metrics,
                                 time.monotonic() - start, pid, ""))
            except Exception as exc:
                outcomes.append((cell, None, time.monotonic() - start,
                                 pid, repr(exc)))
    return outcomes


def _exit_with_parent() -> None:
    """Pool-worker initializer: end this worker once the process that
    started it is gone.

    A dispatcher killed before it could shut its pool down (SIGKILL,
    the OOM killer) would otherwise leave its workers waiting for work
    forever.  ``prctl(PR_SET_PDEATHSIG)`` does not do this: it fires
    when the *thread* that forked the worker exits, not the process.
    The parent is read here rather than passed in, because under the
    ``forkserver`` start method it is the fork server, which exits
    with the dispatcher.
    """
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(1.0)
        os._exit(1)

    threading.Thread(target=watch, name="parent-watch",
                     daemon=True).start()


def _failed(group: List[JobOutcome]) -> bool:
    return any(error for _cell, _m, _w, _p, error in group)


def _stop(pool: ProcessPoolExecutor, kill: bool) -> None:
    """Shut ``pool`` down; with ``kill``, end its workers too, which
    ``cancel()`` cannot do for a running task: a worker left running
    keeps the interpreter from exiting."""
    workers = list((pool._processes or {}).values()) if kill else []
    pool.shutdown(wait=False)
    for worker in workers:
        worker.kill()
        worker.join()


class Dispatcher:
    """Runs tasks on a process pool of ``processes`` workers, or on the
    calling thread when it has none (see the module docstring).

    :meth:`run` may be called from several threads at once.
    """

    def __init__(self, processes: int = 0,
                 timeout: Optional[float] = None, retries: int = 0,
                 progress: Optional[Callable[[str], None]] = None
                 ) -> None:
        self.processes = processes
        self.timeout = timeout
        self.retries = retries
        #: Groups run in-process although a pool was asked for.
        self.fallbacks = 0
        self._progress = progress or (lambda _msg: None)
        self._lock = threading.Lock()
        self._timed_out = False
        self._pool: Optional[ProcessPoolExecutor] = None
        if not processes:
            return
        try:
            self._pool = ProcessPoolExecutor(
                max_workers=processes, initializer=_exit_with_parent)
            # The first submit forks every worker (under the ``fork``
            # start method): do it now, while this process is quiet.
            # Forked later, mid-burst, a child could inherit a lock
            # some server thread holds, and deadlock.  The answer also
            # shows that the workers can start.
            self._pool.submit(int).result(timeout=START_TIMEOUT_S)
        except Exception as exc:  # e.g. sandboxed /dev/shm
            self._progress(f"process pool unavailable ({exc!r}); "
                           f"running groups in-process")
            pool, self._pool = self._pool, None
            if pool is not None:
                _stop(pool, kill=True)

    def run(self, tasks: List[Task]) -> List[Tuple[List[JobOutcome], int]]:
        """Run each task; returns every task's outcomes and retry count,
        in task order.

        All tasks are submitted before the first is waited for, so they
        queue in the pool, not on this thread.
        """
        submitted = []
        for task in tasks:
            start_s = time.monotonic()
            submitted.append((task, start_s, self._submit(task)))
        done = []
        for index, (task, start_s, future) in enumerate(submitted):
            done.append(self._finish(task, start_s, future))
            self._progress(f"group {index + 1}/{len(tasks)}: "
                           f"{job_label(task[1][2])}")
        return done

    def _submit(self, task: Task) -> Optional[Future]:
        """The task's pool future, or None to run it in-process."""
        pool = self._pool
        if pool is None:
            return None
        try:
            return pool.submit(execute_remote, *task, TRACER.active)
        except Exception as exc:  # shut down, or broken by a dead worker
            self._drop(exc)
            return None

    def _finish(self, task: Task, start_s: float,
                future: Optional[Future]) -> Tuple[List[JobOutcome], int]:
        """Wait for one task, retrying it as the policy says."""
        pooled = future is not None
        subject = task[1][2]
        results: List[RemoteResult] = []
        attempt = 0
        while True:
            if future is None:
                group = self._here(task)
            else:
                group = self._wait(future, subject, attempt, results)
                if group is None and attempt >= self.retries:
                    group = self._here(task)  # the last resort
                    attempt += 1
                    break
            if group is not None and (attempt >= self.retries
                                      or not _failed(group)):
                break
            attempt += 1
            future = self._submit(task)
        if pooled:
            record_dispatch(subject, start_s, attempt + 1, results)
        return group, attempt

    def _wait(self, future: Future, subject: Union[Identity, WalkRequest],
              attempt: int, results: List[RemoteResult]
              ) -> Optional[List[JobOutcome]]:
        """One pool attempt's outcomes, or None if it failed or timed
        out; a result that came back is kept in ``results``."""
        try:
            results.append(future.result(timeout=self.timeout))
            return results[-1][0]
        except FutureTimeout:
            self._timed_out = True
            future.cancel()
            self._progress(f"group {job_label(subject)}: timed out "
                           f"after {self.timeout}s (attempt {attempt + 1})")
        except Exception as exc:
            # Broken pool, unpicklable payload/result, worker death, a
            # task that raised.
            if isinstance(exc, BrokenProcessPool):
                self._drop(exc)
            self._progress(f"group {job_label(subject)}: worker failed "
                           f"with {exc!r} (attempt {attempt + 1})")
        return None

    def _here(self, task: Task) -> List[JobOutcome]:
        if self.processes:
            with self._lock:
                self.fallbacks += 1
        function, args = task
        return function(*args)

    def _drop(self, exc: Exception) -> None:
        """Stop using a pool that broke: later groups run in-process.
        No restart: forking while server threads are live can deadlock
        the child (see :meth:`__init__`)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            self._progress(f"process pool lost ({exc!r}); running "
                           f"groups in-process")
            _stop(pool, kill=False)

    def close(self) -> None:
        """Stop the pool, killing its workers if a group timed out (one
        may still be running it), and drop this process's shared-graph
        mappings."""
        pool, self._pool = self._pool, None
        if pool is not None:
            _stop(pool, kill=self._timed_out)
        from repro.graph.shared import release_graphs
        release_graphs()


class JobExecutionError(RuntimeError):
    """A job failed after exhausting its retries and the fallback."""


class JobExecutor:
    """Prices a batch of requests, grouped by identity, against one
    model configuration."""

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
        self._pricer = pricer_for(scale, system, self.store)

    # -- cache bookkeeping ------------------------------------------------

    @property
    def cache(self):
        """The store's result cache: the one this process's pricer for
        the executor's configuration reads and writes."""
        return self._pricer.cache

    def _lookup(self, groups: List[Group]) -> Tuple[
            Dict[RunRequest, RunMetrics], Dict[RunRequest, str]]:
        """Pre-dispatch cache pass: (hits by cell, key by cell)."""
        hits: Dict[RunRequest, RunMetrics] = {}
        keys: Dict[RunRequest, str] = {}
        for _identity, cells in groups:
            for cell in cells:
                keys[cell] = key = job_fingerprint(cell, self.scale,
                                                   self._pricer.system)
                cached = self.cache.get(key)
                if cached is not None:
                    hits[cell] = cached
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
        groups = group_requests(requests)
        hits, keys = self._lookup(groups)
        results: Dict[RunRequest, RunMetrics] = dict(hits)

        pending: List[Group] = []
        for identity, cells in groups:
            for cell in cells:
                if cell in hits:
                    self.telemetry.record(cell, "hit",
                                          cache_key=keys[cell])
            missing = [cell for cell in cells if cell not in hits]
            if missing:
                pending.append((identity, missing))
            else:
                self.telemetry.record(identity, "skipped")
        if pending:
            from repro.stages import stage_counters
            before = Counter(stage_counters())
            done = self._dispatch([
                (execute_group,
                 (self.scale, self.system, identity, cells, self.store))
                for identity, cells in pending])
            self._absorb(done, keys, results)
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
        return {request: results[request] for request in requests}

    def _dispatch(self, tasks: List[Task]
                  ) -> List[Tuple[List[JobOutcome], int]]:
        """Run tasks on one dispatcher: a pool no larger than the batch,
        and none for a single task or ``jobs == 1``."""
        processes = min(self.jobs, len(tasks))
        dispatcher = Dispatcher(processes if processes > 1 else 0,
                                self.timeout, self.retries, self._progress)
        try:
            return dispatcher.run(tasks)
        finally:
            dispatcher.close()

    def walks(self, walks: List[WalkRequest]) -> Dict[WalkRequest, int]:
        """Cycles of each functional-engine walk, in request order.

        Each walk is looked up in the store here first, as a stage hit
        (:meth:`~repro.stages.StagePricer.stored_cycles`), so a warm
        batch dispatches nothing; the walks that miss run on one
        dispatcher, each as its own task.  A walk that fails every
        attempt raises.
        """
        self.cache.on_error = self._progress
        results: Dict[WalkRequest, int] = {}
        for walk in walks:
            cycles = self._pricer.stored_cycles(
                walk.dataset, walk.preprocessing, walk.config, walk.rows,
                walk.mem_latency)
            if cycles is not None:
                results[walk] = cycles
        missing = [walk for walk in walks if walk not in results]
        if missing:
            done = self._dispatch([
                (execute_walk, (self.scale, self.system, walk, self.store))
                for walk in missing])
            for outcomes, _retries in done:
                for walk, cycles, _wall, _pid, _error in outcomes:
                    results[walk] = cycles
        return {walk: results[walk] for walk in walks}

    def _absorb(self, done: List[Tuple[List[JobOutcome], int]],
                keys: Dict[RunRequest, str],
                results: Dict[RunRequest, RunMetrics]) -> None:
        """Record telemetry, collect results, surface failures.

        The cells are already stored: the process that priced each one
        wrote it (:func:`execute_group`).
        """
        failed: List[str] = []
        for outcomes, retries in done:
            for cell, metrics, wall, pid, error in outcomes:
                self.telemetry.record(
                    cell, "failed" if error else "miss", wall,
                    retries=retries, worker_pid=pid, error=error,
                    cache_key=keys.get(cell, ""))
                if error and isinstance(cell, RunRequest):
                    failed.append(f"{job_label(cell)}: {error}")
                if metrics is not None:
                    results[cell] = metrics
        if failed:
            raise JobExecutionError(
                "jobs failed after retries:\n  " + "\n  ".join(failed))
