"""Compute backends: where the server's ``execute_group`` dispatches run.

One dispatch is the jobs layer's group unit — one profile job plus the
price jobs batched onto it (:mod:`repro.serve.batching` builds those
groups across requests).  The backend decides what executes them:

``thread``   a ``ThreadPoolExecutor`` in this process.  Dispatches for
             one profile serialize on a per-profile lock so the
             process-wide stage-pricer bundle is never built twice; distinct
             profiles still contend on the GIL, so this backend scales
             with I/O overlap, not cores.
``process``  a ``ProcessPoolExecutor`` over the jobs layer's pool
             task: each worker process memoizes its own stage
             pricer per (scale, system, store config) — all reading
             through one content-addressed artifact store — groups
             shard across workers, and the
             GIL stops being the ceiling.  Each dispatch's result
             brings the worker's event-count delta home, and its
             spans when the tracer was recording at submit time;
             :func:`~repro.jobs.executor.record_dispatch` merges the
             counts (so ``/stats`` counts the same stage work as the
             thread backend) and adopts the spans under that
             dispatch's ``jobs.task`` envelope as soon as it returns.

Both backends degrade instead of failing: a process pool that cannot
be created or breaks mid-flight (sandboxed ``/dev/shm``, OOM-killed
worker) falls back to in-process execution and counts the fallback.
"""

from __future__ import annotations

import asyncio
import contextvars
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional

from repro.config import SystemConfig
from repro.jobs.cache import StoreConfig
from repro.jobs.executor import (
    JobOutcome,
    execute_group,
    execute_group_remote,
    record_dispatch,
)
from repro.jobs.model import JobSpec
from repro.obs import TRACER

#: Backend names the CLI accepts.
BACKENDS = ("thread", "process")


class ComputeBackend:
    """Interface: run one (profile, prices) group somewhere."""

    name = "abstract"

    async def run_group(self, scale: int, system: Optional[SystemConfig],
                        profile: JobSpec, prices: List[JobSpec],
                        store: Optional[StoreConfig] = None
                        ) -> List[JobOutcome]:
        raise NotImplementedError

    def stats(self) -> Dict[str, object]:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


class ThreadBackend(ComputeBackend):
    """In-process execution on a thread pool (the PR-6 behaviour)."""

    name = "thread"

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="serve-compute")
        self._profile_locks: Dict[str, threading.Lock] = {}
        self._locks_guard = threading.Lock()
        self.dispatches = 0

    def _profile_lock(self, job_id: str) -> threading.Lock:
        with self._locks_guard:
            lock = self._profile_locks.get(job_id)
            if lock is None:
                lock = self._profile_locks[job_id] = threading.Lock()
            return lock

    def _run_locked(self, scale: int, system: Optional[SystemConfig],
                    profile: JobSpec, prices: List[JobSpec],
                    store: Optional[StoreConfig]) -> List[JobOutcome]:
        # Same-profile dispatches serialize so the in-process pricer's
        # profile bundle is built exactly once per profile.
        with self._profile_lock(profile.job_id):
            return execute_group(scale, system, profile, prices,
                                 store)

    async def run_group(self, scale: int, system: Optional[SystemConfig],
                        profile: JobSpec, prices: List[JobSpec],
                        store: Optional[StoreConfig] = None
                        ) -> List[JobOutcome]:
        self.dispatches += 1
        ctx = contextvars.copy_context()
        return await asyncio.get_running_loop().run_in_executor(
            self._pool,
            lambda: ctx.run(self._run_locked, scale, system, profile,
                            prices, store))

    def stats(self) -> Dict[str, object]:
        return {"name": self.name, "workers": self.workers,
                "dispatches": self.dispatches}

    def close(self) -> None:
        self._pool.shutdown(wait=False)


class ProcessBackend(ComputeBackend):
    """Sharded execution across OS worker processes."""

    name = "process"

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.dispatches = 0
        self.fallbacks = 0
        self._fallback_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-fallback")
        self._pool: Optional[ProcessPoolExecutor]
        try:
            self._pool = ProcessPoolExecutor(max_workers=workers)
        except (OSError, ValueError):  # e.g. sandboxed /dev/shm
            self._pool = None
        if self._pool is not None:
            self._warm()

    def _warm(self) -> None:
        # Fork every worker now, while this process is quiet.  The
        # executor otherwise spawns workers lazily at first submit —
        # mid-burst, with server threads live and their locks
        # potentially held across the fork, which deadlocks the child.
        # Each warm task outlives the submit loop so no worker reports
        # idle early, forcing one fresh process per submit.  This also
        # probes pool health: a worker that cannot start demotes the
        # backend to in-process fallback instead of hanging requests.
        try:
            futures = [self._pool.submit(time.sleep, 0.1)
                       for _ in range(self.workers)]
            for future in futures:
                future.result(timeout=30)
        except Exception:
            self._pool.shutdown(wait=False)
            self._pool = None

    async def _run_fallback(self, scale: int,
                            system: Optional[SystemConfig],
                            profile: JobSpec, prices: List[JobSpec],
                            store: Optional[StoreConfig] = None
                            ) -> List[JobOutcome]:
        self.fallbacks += 1
        ctx = contextvars.copy_context()
        return await asyncio.get_running_loop().run_in_executor(
            self._fallback_pool,
            lambda: ctx.run(execute_group, scale, system, profile,
                            prices, store))

    async def run_group(self, scale: int, system: Optional[SystemConfig],
                        profile: JobSpec, prices: List[JobSpec],
                        store: Optional[StoreConfig] = None
                        ) -> List[JobOutcome]:
        self.dispatches += 1
        if self._pool is None:
            return await self._run_fallback(scale, system, profile,
                                            prices, store)
        start = time.monotonic()
        pool = self._pool
        try:
            future = pool.submit(execute_group_remote, scale, system,
                                 profile, prices, store, TRACER.active)
            result = await asyncio.wrap_future(future)
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            # Broken pool, unpicklable payload, dead worker: serve the
            # group in-process rather than failing the whole batch.
            if isinstance(exc, BrokenProcessPool) and self._pool is pool:
                # A dead worker breaks the whole pool, so drop it: stats
                # read "fallback" and later dispatches skip the dead
                # submit.  No restart: forking while server threads are
                # live can deadlock the child (see _warm).
                self._pool = None
                pool.shutdown(wait=False)
            return await self._run_fallback(scale, system, profile,
                                            prices, store)
        record_dispatch(profile, start, 1, [result])
        return result[0]

    def stats(self) -> Dict[str, object]:
        return {"name": self.name, "workers": self.workers,
                "dispatches": self.dispatches,
                "fallbacks": self.fallbacks,
                "pool": "up" if self._pool is not None else "fallback"}

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False)
            self._pool = None
        self._fallback_pool.shutdown(wait=False)
        # Drop this process's shared-graph mappings along with the pool.
        from repro.graph.shared import release_graphs
        release_graphs()


def make_backend(name: str, workers: int) -> ComputeBackend:
    """Build the backend the CLI asked for (``thread`` | ``process``)."""
    if name == "thread":
        return ThreadBackend(workers)
    if name == "process":
        return ProcessBackend(workers)
    raise ValueError(f"unknown backend {name!r}; "
                     f"valid: {', '.join(BACKENDS)}")
