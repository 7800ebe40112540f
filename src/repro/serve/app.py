"""The serving application: endpoints, coalescing, batching, backends.

Request lifecycle (one ``serve.request`` span per request)::

    parse/validate (protocol) ............... 400 on bad input
      hot-tier probe (sync, event loop) ..... serve from memory
      single-flight (batching) .............. join an identical flight
        disk lookup (store, io thread) ...... promote on hit
        group batcher (batching) ............ join a same-profile batch
          admission slot (admission) ........ bounded dispatches
            compute backend (pool) .......... execute_group (stores
                                              each cell on disk)
          hot-tier admit (store) ............ no disk write here

Heavy work — disk pickle I/O and pricing — never runs on the event
loop: lookups go to a small I/O thread pool, and pricing goes to the
configured :mod:`compute backend <repro.serve.pool>` (``thread`` or
``process``) as whole ``execute_group`` dispatches.  Span context
propagates into pool threads via ``contextvars.copy_context``, and a
worker process sends its spans home with each dispatch's result, so
compute-side spans nest under their request span in the trace as soon
as the dispatch returns.

Identical concurrent computations are impossible by construction
(single-flight keys on the canonical fingerprint).  *Distinct* cells
that share a profile — e.g. six schemes of one app/dataset — are
collected by the :class:`~repro.serve.batching.GroupBatcher` into one
``execute_group`` dispatch, so the expensive profiling pass is paid
once per batch instead of once per request, and distinct profiles
shard across backend workers instead of serializing on a lock.
"""

from __future__ import annotations

import asyncio
import contextlib
import contextvars
import dataclasses
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Tuple

from repro.config import SystemConfig
from repro.jobs.cache import StoreConfig
from repro.jobs.fingerprint import job_fingerprint
from repro.jobs.model import RunRequest, group_requests, job_label
from repro.obs import TRACER
from repro.serve.admission import AdmissionController
from repro.serve.batching import (
    DEFAULT_BATCH_MAX,
    DEFAULT_BATCH_WINDOW_S,
    GroupBatcher,
    SingleFlight,
)
from repro.serve.http import (
    BadRequest,
    HttpRequest,
    read_request,
    write_json,
)
from repro.serve.pool import ServeBackend
from repro.serve.protocol import (
    ProtocolError,
    metrics_to_json,
    parse_delta,
    parse_price,
    parse_sweep,
    request_to_json,
)
from repro.serve.store import TieredStore
from repro.sim.metrics import RunMetrics
from repro.stages import stage_counters

#: Default compute pool width.
DEFAULT_WORKERS = 4

#: How long shutdown waits for in-flight requests to finish.
DRAIN_TIMEOUT_S = 30.0


class ComputeError(RuntimeError):
    """Pricing failed inside the jobs layer."""


class ServeApp:
    """Route table, counters, and the pricing pipeline."""

    def __init__(self, scale: Optional[int] = None,
                 system: Optional[SystemConfig] = None,
                 workers: int = DEFAULT_WORKERS,
                 admission_limit: Optional[int] = None,
                 backend: str = "thread",
                 batch_window_s: float = DEFAULT_BATCH_WINDOW_S,
                 batch_max: int = DEFAULT_BATCH_MAX,
                 store_config: Optional[StoreConfig] = None) -> None:
        if scale is None:
            from repro.graph.datasets import DEFAULT_SCALE
            scale = DEFAULT_SCALE
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.scale = scale
        self.system = system
        self._system_resolved = system if system is not None \
            else SystemConfig().scaled(scale)
        # One StoreConfig describes every store the server touches
        # (tiered result store, stage partitions, graph store).
        self.store_config = store_config if store_config is not None \
            else StoreConfig()
        self.store = TieredStore.from_config(self.store_config)
        # Serving a delta means publishing the mutated graph where the
        # compute side will look for it: activate the shared graph
        # store now (no-op when rootless).
        self.store_config.activate_graph_store()
        self.admission = AdmissionController(
            admission_limit if admission_limit is not None else workers)
        self.flight = SingleFlight()
        self.backend = ServeBackend(backend, workers)
        self.batcher = GroupBatcher(self._dispatch_cells,
                                    window_s=batch_window_s,
                                    max_cells=batch_max)
        self._io = ThreadPoolExecutor(
            max_workers=min(workers, 4), thread_name_prefix="serve-io")
        self.workers = workers
        self.computes = 0
        self.errors = 0
        self.requests = Counter()
        self.responses = Counter()
        self._start_mono = time.monotonic()
        self.draining = False
        self._active = 0
        # Lazy for the same reason as the admission semaphore: asyncio
        # primitives on Python < 3.10 bind their creation-time loop, and
        # the app is typically constructed before asyncio.run().
        self._idle: Optional[asyncio.Event] = None
        self._routes: Dict[str, Dict[str, Callable]] = {
            "/healthz": {"GET": self._get_healthz},
            "/stats": {"GET": self._get_stats},
            "/schemes": {"GET": self._get_schemes},
            "/price": {"POST": self._post_price},
            "/simulate": {"POST": self._post_simulate},
            "/sweep": {"POST": self._post_sweep},
            "/graph/delta": {"POST": self._post_delta},
        }
        self.deltas = 0

    # -- connection handling -----------------------------------------------

    async def handle_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        """One task per connection; requests on it run sequentially."""
        try:
            while True:
                try:
                    request = await read_request(reader)
                except BadRequest as exc:
                    self.responses[exc.status] += 1
                    await write_json(writer, exc.status,
                                     {"error": str(exc)},
                                     keep_alive=False)
                    break
                if request is None:
                    break
                keep_alive = request.keep_alive and not self.draining
                status, payload = await self._dispatch(request)
                self.responses[status] += 1
                await write_json(writer, status, payload,
                                 keep_alive=keep_alive)
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError,
                asyncio.CancelledError):
            pass  # client went away (or shutdown cancelled us)
        finally:
            writer.close()
            # Suppress cancellation too: shutdown cancels connection
            # tasks while they await this close handshake, and there is
            # nothing left to unwind past this point.
            with contextlib.suppress(Exception, asyncio.CancelledError):
                await writer.wait_closed()

    async def _dispatch(self, request: HttpRequest
                        ) -> Tuple[int, object]:
        """Route one request under its ``serve.request`` span."""
        self.requests[f"{request.method} {request.path}"] += 1
        methods = self._routes.get(request.path)
        if methods is None:
            return 404, {"error": f"no such endpoint {request.path!r}",
                         "endpoints": sorted(self._routes)}
        handler = methods.get(request.method)
        if handler is None:
            return 405, {"error": f"{request.method} not allowed on "
                                  f"{request.path}; allowed: "
                                  f"{', '.join(sorted(methods))}"}
        if self.draining and request.method == "POST":
            return 503, {"error": "server is draining"}
        self._active += 1
        self._idle_event().clear()
        try:
            with TRACER.span("serve.request", method=request.method,
                             path=request.path) as span:
                try:
                    status, payload = await handler(request)
                except (BadRequest, ProtocolError) as exc:
                    status, payload = exc.status, {"error": str(exc)}
                except ComputeError as exc:
                    self.errors += 1
                    status, payload = 500, {"error": str(exc)}
                except Exception as exc:
                    self.errors += 1
                    status, payload = 500, {"error": repr(exc)}
                span.set(status=status)
            return status, payload
        finally:
            self._active -= 1
            if self._active == 0:
                self._idle_event().set()

    # -- the pricing pipeline ----------------------------------------------

    def request_key(self, request: RunRequest) -> str:
        """The canonical content-addressed identity of one cell."""
        return job_fingerprint(request, self.scale, self._system_resolved)

    def _resolve(self, cell: RunRequest) -> RunRequest:
        """Pin the cell's dataset to its current delta version.

        A bare name follows the dataset's head (so pricing after a
        ``/graph/delta`` sees the mutation); an explicit
        ``base@version`` is validated and used as-is.  Resolution
        happens *before* fingerprinting, so every cache key downstream
        carries the versioned identity.
        """
        from repro.graph.datasets import resolve_version, version_exists
        resolved = resolve_version(cell.dataset, self.scale)
        if not version_exists(resolved, self.scale):
            raise ProtocolError(
                f"unknown dataset version {resolved!r} at scale "
                f"{self.scale}; apply its delta first")
        if resolved == cell.dataset:
            return cell
        return dataclasses.replace(cell, dataset=resolved)

    async def _dispatch_cells(self, cells: List[Tuple[RunRequest, str]]
                              ) -> Dict[str, object]:
        """Run one batch of same-profile cells as a single group.

        The batcher's dispatch hook: takes ``(request, key)`` cells
        sharing one profile, prices them in one ``execute_group`` call
        on the compute backend, admits every result to the hot tier,
        and returns per-key results (a per-cell failure is an exception
        *value* so one bad cell cannot sink its batch-mates).  The
        process that priced a cell already stored it on disk under
        ``key``, so the event loop writes nothing.
        """
        async with self.admission.slot() as waited_s:
            TRACER.manual_span("serve.admission", waited_s,
                               cells=len(cells))
            ((identity, group),) = group_requests(
                request for request, _key in cells)
            with TRACER.span("serve.compute", cells=len(cells),
                             profile=job_label(identity)):
                outcomes = await self.backend.run_group(
                    self.scale, self.system, identity, group,
                    store=self.store_config)
        by_cell = {outcome[0]: outcome for outcome in outcomes}
        results: Dict[str, object] = {}
        for request, key in cells:
            outcome = by_cell.get(request)
            if outcome is None:
                results[key] = ComputeError(
                    f"no result for {request.describe()}")
                continue
            _cell, metrics, error = outcome
            if error:
                results[key] = ComputeError(error)
            elif metrics is None:
                results[key] = ComputeError(
                    f"no result for {request.describe()}")
            else:
                self.store.admit(key, metrics)
                self.computes += 1
                results[key] = metrics
        return results

    def _lookup_sync(self, key: str) -> Optional[RunMetrics]:
        with TRACER.span("serve.lookup"):
            return self.store.get(key)

    async def _in_pool(self, fn, *args):
        """Run blocking work on the I/O pool, carrying the span
        context so pool-side spans nest under the request span."""
        ctx = contextvars.copy_context()
        return await asyncio.get_running_loop().run_in_executor(
            self._io, lambda: ctx.run(fn, *args))

    async def price(self, request: RunRequest
                    ) -> Tuple[RunMetrics, str]:
        """Price one canonical cell; returns (metrics, source).

        ``source`` is ``hot`` / ``disk`` / ``computed`` / ``coalesced``
        — the observability handle the load harness and tests key on.
        """
        key = self.request_key(request)
        hot = self.store.get_hot(key)
        if hot is not None:
            return hot, "hot"

        async def flight() -> Tuple[RunMetrics, str]:
            value = await self._in_pool(self._lookup_sync, key)
            if value is not None:
                return value, "disk"
            value = await self.batcher.submit(request.profile_key,
                                              request, key)
            return value, "computed"

        (metrics, source), coalesced = await self.flight.run(key, flight)
        return metrics, "coalesced" if coalesced else source

    # -- endpoints ---------------------------------------------------------

    async def _post_price(self, request: HttpRequest
                          ) -> Tuple[int, object]:
        cell = self._resolve(parse_price(request.json()))
        metrics, source = await self.price(cell)
        payload = {"request": request_to_json(cell),
                   "metrics": metrics_to_json(metrics),
                   "source": source}
        return 200, payload

    async def _post_simulate(self, request: HttpRequest
                             ) -> Tuple[int, object]:
        """Price one cell plus its ``push`` baseline (CLI parity)."""
        cell = self._resolve(parse_price(request.json()))
        baseline_cell = parse_price({
            "app": cell.app, "scheme": "push", "dataset": cell.dataset,
            "preprocessing": cell.preprocessing})
        (metrics, source), (baseline, _bsource) = await asyncio.gather(
            self.price(cell), self.price(baseline_cell))
        return 200, {
            "request": request_to_json(cell),
            "metrics": metrics_to_json(metrics),
            "baseline": metrics_to_json(baseline),
            "speedup_over_push": metrics.speedup_over(baseline),
            "traffic_vs_push": metrics.traffic_ratio_over(baseline),
            "source": source,
        }

    async def _post_sweep(self, request: HttpRequest
                          ) -> Tuple[int, object]:
        cells = [self._resolve(c) for c in parse_sweep(request.json())]
        results = await asyncio.gather(*(self.price(c) for c in cells))
        sources = Counter(source for _m, source in results)
        return 200, {
            "count": len(cells),
            "sources": dict(sources),
            "cells": [{**request_to_json(cell),
                       "metrics": metrics_to_json(metrics),
                       "source": source}
                      for cell, (metrics, source)
                      in zip(cells, results)],
        }

    async def _post_delta(self, request: HttpRequest
                          ) -> Tuple[int, object]:
        """Apply a graph delta; the mutated dataset gets a new version.

        The response names the versioned dataset
        (``base@version``) — subsequent ``/price`` calls naming the
        bare dataset follow this new head automatically, and explicit
        versions keep addressing their own instance.
        """
        dataset, delta = parse_delta(request.json())
        if self.store_config.root is None \
                and self.backend.name == "process":
            raise ProtocolError(
                "graph deltas need an on-disk store when compute runs "
                "in worker processes (start the server with a cache "
                "dir so mutated graphs publish to the shared graph "
                "store)", status=409)
        from repro.graph.datasets import apply_delta
        with TRACER.span("serve.delta", dataset=dataset,
                         changes=delta.num_changes):
            try:
                handle = await self._in_pool(
                    apply_delta, dataset, delta, self.scale)
            except KeyError as exc:
                raise ProtocolError(str(exc)) from exc
        self.deltas += 1
        return 200, {
            "dataset": handle.versioned_name,
            "base": handle.name,
            "version": handle.version,
            "scale": self.scale,
            "insertions": int(delta.insertions.shape[0]),
            "deletions": int(delta.deletions.shape[0]),
            "touched_rows": int(delta.touched_rows().size),
            "lineage_depth": len(handle.deltas),
            "num_vertices": handle.graph.num_vertices,
            "num_edges": handle.graph.num_edges,
        }

    async def _get_healthz(self, _request: HttpRequest
                           ) -> Tuple[int, object]:
        return 200, {
            "status": "draining" if self.draining else "ok",
            "uptime_s": time.monotonic() - self._start_mono,
            "in_flight": self._active,
            "scale": self.scale,
            "workers": self.workers,
            "backend": self.backend.name,
        }

    async def _get_stats(self, _request: HttpRequest
                         ) -> Tuple[int, object]:
        # The disk tier's stats list and stat every segment, and a
        # server's first call indexes the whole store: I/O-pool work.
        disk = await self._in_pool(self.store.disk.stats)
        stats = self._counters()
        stats["store"]["disk"] = disk
        return 200, stats

    async def _get_schemes(self, _request: HttpRequest
                           ) -> Tuple[int, object]:
        from repro.schemes import REGISTRY, default_parts
        names = REGISTRY.names("all")
        groups = [g for g in REGISTRY.groups() if g != "all"]
        schemes = []
        for name in names:
            spec = REGISTRY.parse(name)
            schemes.append({
                "name": name,
                "base": spec.base,
                "overlay": spec.overlay or None,
                "groups": [g for g in groups
                           if name in REGISTRY.names(g)],
                "default_parts": sorted(default_parts(spec.base))
                if spec.spzip else [],
            })
        return 200, {"schemes": schemes, "groups": groups + ["all"],
                     "count": len(schemes)}

    # -- lifecycle / introspection ----------------------------------------

    def stats(self) -> Dict[str, object]:
        """Every counter the server keeps, for harnesses.  Reads the
        disk tier's stats on the calling thread; the /stats route
        reads them on the I/O pool."""
        return {**self._counters(), "store": self.store.stats()}

    def _counters(self) -> Dict[str, object]:
        """:meth:`stats` without the disk tier's: no I/O."""
        return {
            "uptime_s": time.monotonic() - self._start_mono,
            "requests": dict(self.requests),
            "responses": {str(k): v for k, v in self.responses.items()},
            "computes": self.computes,
            "deltas": self.deltas,
            "errors": self.errors,
            "in_flight": self._active,
            "draining": self.draining,
            "admission": self.admission.stats(),
            "flight": self.flight.stats(),
            "batcher": self.batcher.stats(),
            "backend": self.backend.stats(),
            "store": self.store.counters(),
            # Stage pipeline activity on either backend: process-pool
            # workers' counts are merged as their groups come back.
            "stages": stage_counters(),
        }

    def _idle_event(self) -> asyncio.Event:
        if self._idle is None:
            self._idle = asyncio.Event()
            if self._active == 0:
                self._idle.set()
        return self._idle

    async def drain(self, timeout: float = DRAIN_TIMEOUT_S) -> bool:
        """Stop admitting new POSTs and wait out in-flight requests."""
        self.draining = True
        try:
            await asyncio.wait_for(self._idle_event().wait(), timeout)
            return True
        except asyncio.TimeoutError:
            return False

    def close(self) -> None:
        self.backend.close()
        self._io.shutdown(wait=False)


class ServeServer:
    """Socket lifecycle around one :class:`ServeApp`."""

    def __init__(self, app: ServeApp, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.app = app
        self.host = host
        self.port = port
        self._server: Optional[asyncio.base_events.Server] = None

    async def start(self) -> "ServeServer":
        self._server = await asyncio.start_server(
            self.app.handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def shutdown(self, drain_timeout: float = DRAIN_TIMEOUT_S
                       ) -> bool:
        """Graceful: stop accepting, drain in-flight, stop the pool."""
        drained = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        drained = await self.app.drain(drain_timeout)
        self.app.close()
        return drained

    async def serve_until(self, stop: "asyncio.Event",
                          drain_timeout: float = DRAIN_TIMEOUT_S
                          ) -> bool:
        """Run until ``stop`` is set, then shut down gracefully."""
        if self._server is None:
            await self.start()
        await stop.wait()
        return await self.shutdown(drain_timeout)
