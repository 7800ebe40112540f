"""Load generator + latency harness for the serving front end.

Boots a :class:`~repro.serve.ServeApp` in-process (or targets a running
server via ``--host/--port``) and drives four open-loop traffic mixes
that bracket the serving design space:

``unique``
    every request prices a distinct cell — the store can't help, the
    compute pool and admission queue carry the load;
``distinct_cell``
    distinct cells that *share profiles* (several schemes of one
    app/dataset arrive together) — the cross-request batching case:
    the group batcher should fold same-profile cells into far fewer
    ``execute_group`` dispatches than requests;
``duplicate_heavy``
    one burst of N concurrent *identical* ``/price`` requests for a
    cold cell — the single-flight acceptance case: exactly one
    underlying computation, everyone else coalesces — followed by a
    second, hot-tier burst of the same N;
``sweep``
    K concurrent identical ``/sweep`` requests — coalescing across
    composite requests, cell by cell.

Each mix records client-observed latency percentiles (``p50/p95/p99``,
seconds — the schema ``repro perf diff`` treats as timing metrics),
throughput, and the server-side counter deltas from ``/stats``
(computations, coalesced followers, store hits, batch formation).
Results land in ``BENCH_serve.json``.

Exits nonzero if the duplicate-heavy burst performs more than one
computation, its coalesce+cache hit rate falls below
:data:`COALESCE_RATE_FLOOR`, or the distinct-cell mix fails to batch
(dispatch count not below its request count).

``--scaling-check`` is a separate mode: it boots two self-hosted
servers — the process backend at ``--workers`` and a one-worker thread
backend — runs the distinct-cell mix on each, and gates the throughput
ratio against an adaptive floor (``min(--scaling-floor, 0.7 x
effective workers)``; skipped with a note on single-core machines,
where process scaling is physically impossible).

Run with::

    PYTHONPATH=src python benchmarks/serve_load.py \
        [--out BENCH_serve.json] [--backend thread|process] \
        [--duplicates 64] [--scale 65536] [--scaling-check]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import platform
import sys
import time

from repro.serve.http import parse_response

#: The duplicate-heavy burst must serve at least this fraction of its
#: requests without computing (coalesced, hot, or disk).
COALESCE_RATE_FLOOR = 0.90

#: Cells for the unique mix: distinct (app, scheme, dataset) triples.
UNIQUE_APPS = ("dc", "bfs")
UNIQUE_SCHEMES = ("push", "push+spzip", "phi", "phi+spzip", "ub",
                  "ub+spzip")
UNIQUE_DATASETS = ("arb", "ukl")

#: Cells for the distinct-cell mix: every request distinct, but the six
#: schemes of each (app, dataset) share one profile, so the group
#: batcher can fold them into a single dispatch.  ``preprocessing:
#: degree`` keeps these profiles disjoint from every other mix.
DISTINCT_APPS = ("dc", "bfs")
DISTINCT_DATASETS = ("arb", "ukl", "twi", "it")
DISTINCT_PREPROCESSING = "degree"

#: The duplicate mix's one cell — disjoint from the unique mix so the
#: burst always starts cold.
DUPLICATE_CELL = {"app": "dc", "scheme": "phi+spzip", "dataset": "twi"}

#: The sweep mix's body — again a disjoint dataset.
SWEEP_BODY = {"app": "dc", "schemes": "paper", "dataset": "it"}


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list (q in [0, 100])."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def latency_summary(latencies_s):
    ordered = sorted(latencies_s)
    return {
        "p50": percentile(ordered, 50),
        "p95": percentile(ordered, 95),
        "p99": percentile(ordered, 99),
        "mean_s": sum(ordered) / len(ordered) if ordered else 0.0,
        "max_s": ordered[-1] if ordered else 0.0,
    }


class Client:
    """One-request-per-connection JSON client over raw asyncio streams."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port

    async def request(self, method: str, path: str, payload=None):
        """(status, body-dict, seconds) for one round trip."""
        start = time.perf_counter()
        reader, writer = await asyncio.open_connection(self.host,
                                                       self.port)
        try:
            body = b"" if payload is None else \
                json.dumps(payload).encode()
            writer.write(
                (f"{method} {path} HTTP/1.1\r\n"
                 f"Host: {self.host}\r\n"
                 f"Content-Length: {len(body)}\r\n"
                 f"Connection: close\r\n\r\n").encode() + body)
            await writer.drain()
            raw = await reader.read()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
        status, _headers, response = parse_response(raw)
        return (status, json.loads(response),
                time.perf_counter() - start)

    async def stats(self):
        status, body, _s = await self.request("GET", "/stats")
        assert status == 200, f"/stats returned {status}"
        return body


def stats_delta(before, after):
    """Server-side counter movement across one mix."""

    def batcher(stats, key):
        return stats.get("batcher", {}).get(key, 0)

    def dispatches(stats):
        return stats.get("backend", {}).get("dispatches", 0)

    return {
        "computes": after["computes"] - before["computes"],
        "coalesced": (after["flight"]["followers"]
                      - before["flight"]["followers"]),
        "hot_hits": (after["store"]["hot_hits"]
                     - before["store"]["hot_hits"]),
        "disk_hits": (after["store"]["disk_hits"]
                      - before["store"]["disk_hits"]),
        "errors": after["errors"] - before["errors"],
        "batches": batcher(after, "batches") - batcher(before, "batches"),
        "batched_cells": (batcher(after, "batched_cells")
                          - batcher(before, "batched_cells")),
        "dispatches": dispatches(after) - dispatches(before),
    }


async def run_burst(client, requests, concurrency):
    """Fire all requests with bounded client concurrency.

    Returns (latencies list, list of (status, body)); open-loop within
    the burst — arrival is immediate, only the client socket pool is
    bounded.
    """
    gate = asyncio.Semaphore(concurrency)

    async def one(spec):
        method, path, payload = spec
        async with gate:
            status, body, seconds = await client.request(method, path,
                                                         payload)
        return status, body, seconds

    outcomes = await asyncio.gather(*(one(spec) for spec in requests))
    latencies = [seconds for _status, _body, seconds in outcomes]
    return latencies, [(status, body)
                       for status, body, _seconds in outcomes]


def mix_record(name, latencies, wall_s, delta, responses):
    statuses = {}
    for status, _body in responses:
        statuses[str(status)] = statuses.get(str(status), 0) + 1
    served = len(latencies)
    no_compute = served - delta["computes"]
    record = {
        "requests": served,
        "wall_s": wall_s,
        "throughput_rps": served / wall_s if wall_s else 0.0,
        "latency": latency_summary(latencies),
        "statuses": statuses,
        **delta,
        "coalesce_hit_rate": no_compute / served if served else 0.0,
    }
    print(f"{name:16s}: {served} reqs in {wall_s:6.2f}s "
          f"({record['throughput_rps']:7.1f} rps)  "
          f"p50 {record['latency']['p50'] * 1e3:7.1f}ms  "
          f"p99 {record['latency']['p99'] * 1e3:7.1f}ms  "
          f"computes {delta['computes']}  "
          f"coalesce+cache {100 * record['coalesce_hit_rate']:.1f}%",
          file=sys.stderr)
    return record


async def run_distinct_mix(client, args):
    """The cross-request batching mix: 48 distinct cells, 8 profiles."""
    cells = [
        ("POST", "/price", {"app": app, "scheme": scheme,
                            "dataset": dataset,
                            "preprocessing": DISTINCT_PREPROCESSING})
        for app in DISTINCT_APPS
        for dataset in DISTINCT_DATASETS
        for scheme in UNIQUE_SCHEMES][:args.distinct]
    before = await client.stats()
    start = time.perf_counter()
    latencies, responses = await run_burst(client, cells,
                                           args.client_concurrency)
    wall_s = time.perf_counter() - start
    record = mix_record(
        "distinct_cell", latencies, wall_s,
        stats_delta(before, await client.stats()), responses)
    record["profiles"] = len({(app, dataset)
                              for _m, _p, body in cells
                              for app, dataset in
                              [(body["app"], body["dataset"])]})
    if record["batches"]:
        record["mean_batch"] = (record["batched_cells"]
                                / record["batches"])
    return record


async def run_mixes(client, args):
    record = {}

    # -- unique: every request is a distinct cold cell ------------------
    unique_cells = [
        ("POST", "/price", {"app": app, "scheme": scheme,
                            "dataset": dataset})
        for app in UNIQUE_APPS
        for scheme in UNIQUE_SCHEMES
        for dataset in UNIQUE_DATASETS][:args.unique]
    before = await client.stats()
    start = time.perf_counter()
    latencies, responses = await run_burst(client, unique_cells,
                                           args.client_concurrency)
    wall_s = time.perf_counter() - start
    record["unique"] = mix_record(
        "unique", latencies, wall_s,
        stats_delta(before, await client.stats()), responses)

    # -- distinct cells sharing profiles: the batching case -------------
    record["distinct_cell"] = await run_distinct_mix(client, args)

    # -- duplicate-heavy: one cold burst of N identical requests --------
    burst = [("POST", "/price", DUPLICATE_CELL)] * args.duplicates
    before = await client.stats()
    start = time.perf_counter()
    latencies, responses = await run_burst(client, burst,
                                           args.duplicates)
    wall_s = time.perf_counter() - start
    record["duplicate_heavy"] = mix_record(
        "duplicate_heavy", latencies, wall_s,
        stats_delta(before, await client.stats()), responses)
    sources = {}
    for status, body in responses:
        if status == 200:
            source = body.get("source", "?")
            sources[source] = sources.get(source, 0) + 1
    record["duplicate_heavy"]["sources"] = sources

    # -- duplicate repeat: the same burst again, now hot ----------------
    before = await client.stats()
    start = time.perf_counter()
    latencies, responses = await run_burst(client, burst,
                                           args.duplicates)
    wall_s = time.perf_counter() - start
    record["duplicate_repeat"] = mix_record(
        "duplicate_repeat", latencies, wall_s,
        stats_delta(before, await client.stats()), responses)

    # -- sweep: K concurrent identical composite requests ---------------
    sweeps = [("POST", "/sweep", SWEEP_BODY)] * args.sweeps
    before = await client.stats()
    start = time.perf_counter()
    latencies, responses = await run_burst(client, sweeps, args.sweeps)
    wall_s = time.perf_counter() - start
    record["sweep"] = mix_record(
        "sweep", latencies, wall_s,
        stats_delta(before, await client.stats()), responses)
    record["sweep"]["cells_per_sweep"] = next(
        (body["count"] for status, body in responses if status == 200),
        0)

    return record


async def boot_server(args, backend, workers, cache_dir=None):
    """Self-host one server; returns (server, client)."""
    import tempfile

    from repro.jobs.cache import StoreConfig
    from repro.serve import ServeApp, ServeServer
    cache_dir = cache_dir or tempfile.mkdtemp(prefix="serve-load-")
    app = ServeApp(scale=args.scale, workers=workers, backend=backend,
                   batch_window_s=args.batch_window,
                   batch_max=args.batch_max,
                   store_config=StoreConfig(root=cache_dir))
    server = await ServeServer(app, "127.0.0.1", 0).start()
    print(f"self-hosted server on {server.url} "
          f"(scale={args.scale}, backend={app.backend.name}, "
          f"workers={workers}, batch_window={args.batch_window}s, "
          f"cache={cache_dir})", file=sys.stderr)
    return server, Client(server.host, server.port)


async def check_health(client):
    status_code, health, _s = await client.request("GET", "/healthz")
    assert status_code == 200 and health["status"] == "ok", health


async def run_scaling_check(args):
    """Distinct-cell throughput: process x workers vs one thread.

    The floor adapts to the machine: a single-core box cannot scale
    across processes at all (the check still runs, but only reports),
    and a box with fewer cores than ``--workers`` can only reach its
    core count.  0.7x grants scheduling + IPC overhead.
    """
    import os
    cpus = os.cpu_count() or 1
    if cpus == 1:
        floor = 0.0
        note = "single-core machine: ratio reported, gate skipped"
    else:
        floor = min(args.scaling_floor,
                    0.7 * min(args.workers, cpus))
        note = f"floor min({args.scaling_floor}, 0.7*{min(args.workers, cpus)})"

    sides = {}
    for side, backend, workers in (
            ("process", "process", args.workers),
            ("thread_1", "thread", 1)):
        server, client = await boot_server(args, backend, workers)
        try:
            await check_health(client)
            sides[side] = await run_distinct_mix(client, args)
        finally:
            await server.shutdown()

    ratio = (sides["process"]["throughput_rps"]
             / sides["thread_1"]["throughput_rps"]
             if sides["thread_1"]["throughput_rps"] else 0.0)
    record = {
        "bench": "serve_scaling",
        "python": platform.python_version(),
        "cpus": cpus,
        "workers": args.workers,
        "scaling_floor": floor,
        "floor_note": note,
        "speedup": ratio,
        **{side: mix for side, mix in sides.items()},
    }
    with open(args.out, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"scaling: process x{args.workers} = "
          f"{sides['process']['throughput_rps']:.1f} rps, thread x1 = "
          f"{sides['thread_1']['throughput_rps']:.1f} rps -> "
          f"{ratio:.2f}x (floor {floor:.2f}, {note})", file=sys.stderr)
    print(f"wrote {args.out}", file=sys.stderr)
    if ratio < floor:
        print(f"FAIL: distinct-cell speedup {ratio:.2f}x below the "
              f"{floor:.2f}x floor", file=sys.stderr)
        return 1
    return 0


async def main_async(args):
    if args.scaling_check:
        return await run_scaling_check(args)

    if args.host:
        client = Client(args.host, args.port)
        server = None
    else:
        server, client = await boot_server(args, args.backend,
                                           args.workers, args.cache_dir)

    await check_health(client)

    try:
        mixes = await run_mixes(client, args)
    finally:
        if server is not None:
            drained = await server.shutdown()
            print(f"server shutdown: "
                  f"{'drained' if drained else 'DRAIN TIMED OUT'}",
                  file=sys.stderr)

    record = {
        "bench": "serve_load",
        "python": platform.python_version(),
        "scale": args.scale,
        "backend": "remote" if args.host else args.backend,
        "workers": args.workers,
        "batch_window_s": args.batch_window,
        "batch_max": args.batch_max,
        "duplicates": args.duplicates,
        "coalesce_rate_floor": COALESCE_RATE_FLOOR,
        **mixes,
    }
    with open(args.out, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.out}", file=sys.stderr)

    status = 0
    duplicate = mixes["duplicate_heavy"]
    if duplicate["computes"] != 1:
        print(f"FAIL: duplicate-heavy burst performed "
              f"{duplicate['computes']} computations, expected "
              f"exactly 1 (single-flight broken)", file=sys.stderr)
        status = 1
    if duplicate["coalesce_hit_rate"] < COALESCE_RATE_FLOOR:
        print(f"FAIL: duplicate-heavy coalesce+cache hit rate "
              f"{100 * duplicate['coalesce_hit_rate']:.1f}% below the "
              f"{100 * COALESCE_RATE_FLOOR:.0f}% floor",
              file=sys.stderr)
        status = 1
    distinct = mixes["distinct_cell"]
    if distinct["dispatches"] >= distinct["requests"] > 0:
        print(f"FAIL: distinct-cell mix made {distinct['dispatches']} "
              f"dispatches for {distinct['requests']} requests "
              f"(cross-request batching broken)", file=sys.stderr)
        status = 1
    if (duplicate["errors"] or mixes["unique"]["errors"]
            or distinct["errors"]):
        print("FAIL: server reported errors during the run",
              file=sys.stderr)
        status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_serve.json")
    parser.add_argument("--scale", type=int, default=65536,
                        help="model scale for the self-hosted server")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--backend", choices=("thread", "process"),
                        default="thread",
                        help="compute backend for the self-hosted "
                             "server")
    parser.add_argument("--batch-window", type=float, default=0.002,
                        help="cross-request batch window, seconds")
    parser.add_argument("--batch-max", type=int, default=16,
                        help="cells per batch before an early flush")
    parser.add_argument("--unique", type=int, default=24,
                        help="unique-mix request count (max 24)")
    parser.add_argument("--distinct", type=int, default=48,
                        help="distinct-cell mix request count (max 48)")
    parser.add_argument("--duplicates", type=int, default=64,
                        help="identical concurrent requests in the "
                             "duplicate-heavy burst")
    parser.add_argument("--sweeps", type=int, default=8,
                        help="concurrent identical /sweep requests")
    parser.add_argument("--client-concurrency", type=int, default=16)
    parser.add_argument("--cache-dir", default=None,
                        help="disk tier for the self-hosted server "
                             "(default: a fresh temp dir)")
    parser.add_argument("--host", default=None,
                        help="target an already-running server instead "
                             "of self-hosting")
    parser.add_argument("--port", type=int, default=8377)
    parser.add_argument("--scaling-check", action="store_true",
                        help="run only the distinct-cell mix on a "
                             "process-backend server vs a one-worker "
                             "thread server and gate the speedup")
    parser.add_argument("--scaling-floor", type=float, default=2.5,
                        help="required process-over-thread speedup "
                             "(adapted down on small machines)")
    args = parser.parse_args(argv)
    return asyncio.run(main_async(args))


if __name__ == "__main__":
    sys.exit(main())
