"""The compute backend: where the server's ``execute_group`` dispatches run.

One dispatch is the jobs layer's group unit — one identity plus the
cells batched onto it (:mod:`repro.serve.batching` builds those
groups across requests).  The backend is the jobs layer's one
:class:`~repro.jobs.executor.Dispatcher`, kept for the server's life
(with no timeout and no retries): each dispatch blocks in
:meth:`~repro.jobs.executor.Dispatcher.run` on one of ``workers``
threads, so pool, fallback and tracing work as in ``repro report``.
The backend name picks the dispatcher:

``thread``   no pool: each group runs on its thread, on this process's
             stage pricer, whose per-identity build lock keeps two
             threads from building one profile's bundle twice.
             Distinct profiles contend on the GIL, so this backend
             scales with I/O overlap, not cores.
``process``  a ``ProcessPoolExecutor`` of ``workers`` processes,
             forked at construction: each worker memoizes its own
             stage pricer per (scale, system, store config) — all
             reading through one content-addressed artifact store —
             groups shard across workers, and the GIL stops being the
             ceiling.  Each dispatch's result brings the worker's
             event-count delta home, and its spans when the tracer was
             recording at submit time;
             :func:`~repro.jobs.executor.record_dispatch` merges the
             counts (so ``/stats`` counts the same stage work as the
             thread backend) and adopts the spans under that
             dispatch's ``jobs.task`` envelope as soon as it returns.

The process backend degrades instead of failing: a pool that cannot
start or breaks (sandboxed ``/dev/shm``, an OOM-killed worker) is
dropped, and its groups and every later one run in-process on all
``workers`` threads, counted in ``fallbacks``.
"""

from __future__ import annotations

import asyncio
import contextvars
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional

from repro.config import SystemConfig
from repro.jobs.cache import StoreConfig
from repro.jobs.executor import Dispatcher, JobOutcome, execute_group
from repro.jobs.model import Identity, RunRequest

#: Backend names the CLI accepts.
BACKENDS = ("thread", "process")


class ServeBackend(Dispatcher):
    """The server's dispatcher, called from ``workers`` threads."""

    def __init__(self, name: str, workers: int) -> None:
        if name not in BACKENDS:
            raise ValueError(f"unknown backend {name!r}; "
                             f"valid: {', '.join(BACKENDS)}")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        super().__init__(workers if name == "process" else 0)
        self.name = name
        self.workers = workers
        self.dispatches = 0
        self._threads = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="serve-compute")

    async def run_group(self, scale: int, system: Optional[SystemConfig],
                        identity: Identity, cells: List[RunRequest],
                        store: Optional[StoreConfig] = None
                        ) -> List[JobOutcome]:
        self.dispatches += 1
        # The span context follows the group onto its thread.
        ctx = contextvars.copy_context()
        (outcomes,) = await asyncio.get_running_loop().run_in_executor(
            self._threads,
            lambda: ctx.run(self.run, [(execute_group, (
                scale, system, identity, cells, store))]))
        return outcomes

    def stats(self) -> Dict[str, object]:
        stats: Dict[str, object] = {"name": self.name,
                                    "workers": self.workers,
                                    "dispatches": self.dispatches}
        if self.processes:
            stats["fallbacks"] = self.fallbacks
            stats["pool"] = "up" if self._pool is not None else "fallback"
        return stats

    def close(self) -> None:
        self._threads.shutdown(wait=False)
        super().close()


#: The name perfbench's layer trace wraps ``run_group`` under.
ProcessBackend = ServeBackend
