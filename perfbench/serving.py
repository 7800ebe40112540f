"""The ``serve_mixed`` workload: open-loop traffic against ``repro serve``.

The server (``ServeApp`` with the process backend, ``workers=nproc``,
an on-disk store and K stream partitions) runs in a forked child; this
process is the load generator.  Requests follow a seeded schedule:
arrival times are a Poisson process conditioned on its request count
(sorted uniform times over the run), sent over at most ``nproc``
keep-alive connections.  Each request is timed from its due time, so a
stall delays every request queued behind it.

Traffic: ``/price`` over a Zipf-popular cell universe plus ``/sweep``
and ``/simulate``; every 1.25 s a ``POST /graph/delta`` mutates one
dataset priced under ``natural`` and its writer sweeps the new head, so
bare-name reads of it follow the new head and go cold, reusing the
stream partitions the delta did not touch.

Correctness: every response must be 200, every delta must produce the
version this process predicts by applying the same deltas locally, a
versioned cell must get one result wherever it is served (in a run and
across runs), and a seeded sample of responses is re-priced in-process
on the same versioned cell (a fresh in-memory pricer, unpartitioned)
and must match exactly.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import random
import time
from typing import Dict, List, Optional, Set, Tuple

from common import (
    DriftCheck,
    SetupProbe,
    digest,
    log,
    metric,
    peak_rss_mb,
    percentile,
)

#: Model scale of the served cells.
SERVE_SCALE = 65536
#: Stream partitions per graph (K > 1 enables delta partition reuse).
PARTITIONS = 4
#: Offered load, requests per second, over the whole run: about a
#: seventh of the closed-loop throughput of this traffic measured on a
#: two-core virtual machine (about 1800 requests/s with every request
#: due at once), so requests queue now and then but the server keeps
#: up.  At twice the rate, the run-to-run spread of the latencies there
#: nearly doubled.  It is a fixed rate, not a share of each run's own
#: capacity, so a faster server shows as lower latency.
RATE_RPS = 240.0
#: Requests answered later than this (from their due time) miss the
#: latency limit and do not count toward goodput.  At the rate above on
#: that machine the 90th percentile was about 3 ms and 1-2% of the
#: requests (those queued behind a post-delta recompute) took longer.
LATENCY_LIMIT_MS = 10.0
#: Seconds between graph deltas: an assumption, chosen so a run of
#: 25 s holds twenty invalidation epochs and the recompute after them
#: averages out over the run.
DELTA_PERIOD_S = 1.25
#: Edge mutations per delta, as a share of the mutated graph's edges,
#: confined to one partition: the localized delta of
#: ``benchmarks/delta_sweep.py`` and ``docs/DYNAMIC_GRAPHS.md``.
DELTA_SHARE = 0.01
#: Responses re-priced in-process per run.
VERIFY_SAMPLE = 10

APPS = ("pr", "cc", "bfs", "dc")
STATIC_DATASETS = ("arb", "twi", "it", "web")
MUTATED = "ukl"
MUTATED_PREPROCESSING = "natural"
#: Share of /price and /simulate traffic that reads the mutated dataset:
#: an assumption (one of five datasets is written, and reads of it are
#: rarer than of the four static ones).
MUTATED_SHARE = 0.1
#: Request mix (fractions of non-delta requests): an assumption, reads
#: of single cells dominate, as in ``benchmarks/serve_load.py``'s
#: mixes, where one sweep mix sits beside four single-cell mixes.
MIX = (("/price", 0.8), ("/simulate", 0.1), ("/sweep", 0.1))
#: Cell popularity: Zipf with YCSB's default constant (0.99; Cooper et
#: al., "Benchmarking Cloud Serving Systems with YCSB", SoCC 2010).
ZIPF_S = 0.99


# -- the schedule -------------------------------------------------------------

def _schemes() -> Tuple[str, ...]:
    from repro.schemes import scheme_names
    return tuple(scheme_names("paper"))


def universe() -> List[Dict[str, str]]:
    """The static cells: 4 apps x paper schemes x 4 inputs."""
    return [{"app": app, "scheme": scheme, "dataset": dataset}
            for app in APPS for dataset in STATIC_DATASETS
            for scheme in _schemes()]


def mutated_cells() -> List[Dict[str, str]]:
    return [{"app": app, "scheme": scheme, "dataset": MUTATED,
             "preprocessing": MUTATED_PREPROCESSING}
            for app in APPS for scheme in _schemes()]


def _zipf_picker(rng: random.Random, items: List):
    ranked = list(items)
    rng.shuffle(ranked)
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(ranked))]
    return lambda: rng.choices(ranked, weights)[0]


def make_deltas(count: int, scale: int):
    """The deltas on the mutated dataset, each sampled from the head the
    previous one produced, applied locally as they are made (so this
    process can predict and re-price every version).

    They are the same for every seed: what a delta costs to absorb (a
    BFS frontier, say, follows the edges it rewires) varies widely from
    one sampled delta to the next, and with twenty per run that cost would
    set the run-to-run spread.  The seed sets the reads around them.
    """
    from repro.graph.datasets import apply_delta, current_handle, load
    from repro.graph.delta import sample_delta
    from repro.runtime.traffic_array import partition_bounds
    deltas = []
    for index in range(count):
        handle = current_handle(MUTATED, scale)
        head = handle.graph if handle is not None else load(MUTATED, scale)
        # Deltas take the partitions in turn.
        bounds = partition_bounds(head.num_vertices, PARTITIONS)
        row_range = bounds[index % len(bounds)]
        changes = max(2, int(head.num_edges * DELTA_SHARE))
        delta = sample_delta(head, seed=index,
                             insertions=changes // 2,
                             deletions=changes - changes // 2,
                             row_range=row_range)
        body: Dict[str, object] = {
            "dataset": MUTATED,
            "insertions": delta.insertions.tolist(),
            "deletions": delta.deletions.tolist()}
        if delta.insert_values is not None:
            body["insert_values"] = delta.insert_values.tolist()
        version = apply_delta(MUTATED, delta, scale).versioned_name
        deltas.append((body, version))
    return deltas


def refresh_body() -> Dict[str, object]:
    """A sweep over every cell of the mutated dataset's head."""
    return {"apps": list(APPS), "schemes": "paper", "dataset": MUTATED,
            "preprocessing": MUTATED_PREPROCESSING}


def make_schedule(seed: int, seconds: float, scale: int):
    """(due offset s, path, body, expected delta version) per request."""
    rng = random.Random(seed)
    count = max(1, int(RATE_RPS * seconds))
    dues = sorted(rng.uniform(0.0, seconds) for _ in range(count))
    kinds: List[str] = []
    for path, share in MIX:
        kinds += [path] * round(share * count)
    kinds = (kinds + ["/price"] * count)[:count]
    rng.shuffle(kinds)
    static = _zipf_picker(rng, universe())
    mutated = _zipf_picker(rng, mutated_cells())
    schedule: List[Tuple[float, str, Dict[str, object], Optional[str]]] = []
    for due, path in zip(dues, kinds):
        if path == "/sweep":
            cell = static()
            body = {"app": cell["app"], "schemes": "paper",
                    "dataset": cell["dataset"]}
        else:
            body = dict(mutated() if rng.random() < MUTATED_SHARE
                        else static())
        schedule.append((due, path, body, None))
    delta_count = max(1, int(seconds / DELTA_PERIOD_S))
    for index, (body, version) in enumerate(
            make_deltas(delta_count, scale)):
        due = (index + 0.5) * DELTA_PERIOD_S
        schedule.append((due, "/graph/delta", body, version))
    schedule.sort(key=lambda item: item[0])
    return schedule


# -- the server process -------------------------------------------------------

def _server_child(conn, store_root: str, scale: int, trace: bool) -> None:
    try:
        asyncio.run(_serve(conn, store_root, scale, trace))
    except BaseException as exc:
        conn.send({"error": repr(exc)})
        raise
    finally:
        conn.close()


async def _serve(conn, store_root: str, scale: int, trace: bool) -> None:
    from repro.jobs.cache import StoreConfig
    from repro.obs import TRACER
    from repro.serve import ServeApp, ServeServer

    layers = None
    if trace:
        from layers import LayerTrace
        # Both before the backend forks its workers.
        layers = LayerTrace().install()
        TRACER.start(trace_id="perfbench-serve")
    workers = os.cpu_count() or 1
    app = ServeApp(scale=scale, workers=workers, backend="process",
                   store_config=StoreConfig(root=store_root,
                                            stream_partitions=PARTITIONS))
    server = await ServeServer(app, "127.0.0.1", 0).start()
    pool = getattr(app.backend, "_pool", None)
    # The workers have forked and keep every core; the event loop joins
    # the load generator on the first.
    _pin_to_first_core()
    # The load generator says when the measured phase starts (after its
    # warm-up) and when it is over.
    stop = asyncio.Event()
    measured: Dict[str, float] = {}

    def on_message() -> None:
        if conn.recv() == "measure":
            measured["since"] = time.monotonic()
            measured["cpu_s"] = _pool_cpu_s(pool)
        else:
            stop.set()
    loop = asyncio.get_running_loop()
    loop.add_reader(conn.fileno(), on_message)
    conn.send({"port": server.port,
               "pool": app.backend.stats().get("pool")})
    await stop.wait()
    loop.remove_reader(conn.fileno())
    since = measured.get("since", 0.0)
    cpu_s = _pool_cpu_s(pool) - measured.get("cpu_s", 0.0)
    stats = app.stats()
    drained = await server.shutdown()
    if pool is not None:
        pool.shutdown(wait=True)
    for child in multiprocessing.active_children():
        child.join()
    record: Dict[str, object] = {
        "stats": stats, "drained": drained, "peak_rss_mb": peak_rss_mb(),
        "cpu_s": cpu_s}
    if trace:
        TRACER.stop()
        layers.restore()
        record["layers"] = server_layers(
            [span for span in TRACER.spans if span.start_s >= since])
    conn.send(record)


def _pool_cpu_s(pool) -> float:
    """CPU seconds the pool's worker processes have used so far (user
    plus system, from ``/proc``; time the host took away is not in it)."""
    ticks = os.sysconf("SC_CLK_TCK")
    total = 0
    for pid in list(getattr(pool, "_processes", None) or {}):
        try:
            with open(f"/proc/{pid}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += int(fields[11]) + int(fields[12])
    return total / ticks


def server_layers(spans) -> Dict[str, float]:
    from layers import layer_metrics, layer_totals
    totals = layer_totals(spans)

    def ms(name):
        return [s.duration_s * 1e3
                for s in totals.get(name, {}).get("spans", [])]

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    compute = ms("serve.compute")
    cells = [int(s.attrs.get("cells", 0))
             for s in totals.get("serve.compute", {}).get("spans", [])]
    out = layer_metrics(totals)
    out.update({
        "serve.compute.p50_ms": percentile(compute, 50) if compute else 0.0,
        "serve.compute.p99_ms": percentile(compute, 99) if compute else 0.0,
        "serve.admission.wait.ms": mean(ms("serve.admission")),
        "serve.lookup.ms": mean(ms("serve.lookup")),
        "serve.batch.cells_mean": mean(cells),
    })
    return out


def _pin_to_first_core() -> Set[int]:
    """Run this process on one core; returns the cores it had before.

    The load generator and the server's event loop share one core: on a
    virtual machine, a request handed between two idle cores waits for
    the host to wake the other one, and that wait varies with the host's
    load from run to run; on one core the hand-off is a local context
    switch.  The pool workers keep every core.
    """
    cores = os.sched_getaffinity(0)
    if len(cores) > 1:
        os.sched_setaffinity(0, {min(cores)})
    return cores


def start_server(store_root: str, scale: int, trace: bool):
    context = multiprocessing.get_context("fork")
    parent, child_end = context.Pipe()
    child = context.Process(target=_server_child,
                            args=(child_end, store_root, scale, trace))
    child.start()
    child_end.close()
    hello = parent.recv()
    if "error" in hello:
        child.join()
        raise RuntimeError(f"server failed to start: {hello['error']}")
    return child, parent, hello


def stop_server(child, conn) -> Dict[str, object]:
    conn.send("stop")
    try:
        record = conn.recv()
    except EOFError:
        record = {"error": "server process died before reporting"}
    child.join()
    conn.close()
    return record


# -- the load generator -------------------------------------------------------

class Connection:
    """One keep-alive HTTP/1.1 client connection."""

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer)

    async def request(self, method: str, path: str,
                      payload=None) -> Tuple[int, object]:
        body = b"" if payload is None else json.dumps(payload).encode()
        self.writer.write(
            (f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
             f"Content-Type: application/json\r\n"
             f"Content-Length: {len(body)}\r\n\r\n").encode() + body)
        await self.writer.drain()
        head = await self.reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        length = 0
        for line in lines[1:]:
            name, _sep, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        raw = await self.reader.readexactly(length)
        return status, json.loads(raw) if raw else None

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _warm(connections: List[Connection]) -> List[Tuple[str, str]]:
    """Price the whole static universe and the mutated dataset's base
    cells once, so measurement starts from a warm store.  Returns the
    priced results, which are the same in every run."""
    queue = [{"apps": list(APPS), "schemes": "paper", "dataset": d}
             for d in STATIC_DATASETS]
    queue.append(refresh_body())
    priced: List[Tuple[str, str]] = []

    async def worker(connection: Connection) -> None:
        while queue:
            status, body = await connection.request("POST", "/sweep",
                                                    queue.pop())
            if status != 200:
                raise RuntimeError(f"warm-up sweep returned {status}: "
                                   f"{body}")
            priced.extend(priced_record(cell, cell["metrics"])
                          for cell in body["cells"])
    await asyncio.gather(*(worker(c) for c in connections))
    return priced


def priced_record(cell: Dict[str, object], metrics) -> Tuple[str, str]:
    """Canonical text of one served result: the versioned cell and its
    metrics (how it was served — hot, computed, coalesced — left out)."""
    request = {key: cell[key] for key in
               ("app", "scheme", "dataset", "preprocessing")}
    return (json.dumps(request, sort_keys=True),
            json.dumps(metrics, sort_keys=True))


async def drive(port: int, schedule, connections_n: int, on_warm):
    """Warm the store, call ``on_warm``, then send the schedule
    open-loop.  Returns the schedule's start, per-request outcomes and
    the warm-up results."""
    connections = [await Connection.open(port)
                   for _ in range(connections_n)]
    warm = await _warm(connections)
    on_warm()
    idle: asyncio.Queue = asyncio.Queue()
    for connection in connections:
        idle.put_nowait(connection)
    outcomes: List[Dict[str, object]] = []
    tasks = []
    # Read-after-write order on the mutated dataset.  A writer sends its
    # delta and then re-reads every cell of the new head (so each delta
    # is followed by the same recompute work, whichever cells the seeded
    # reads pick); writes go one at a time, and other reads of the
    # dataset wait while one is pending.  The wait also keeps reads
    # clear of a race in the server: it moves a dataset's head before it
    # publishes the new graph to the shared store, so a bare-name read
    # that lands in between reaches a pool worker that cannot load the
    # new version yet (a 500).
    writes = asyncio.Lock()
    settled = asyncio.Event()
    settled.set()
    pending = [0]

    async def request(connection, due_abs, path, body, expected):
        sent = time.monotonic()
        try:
            status, response = await connection.request("POST", path,
                                                         body)
        except (OSError, asyncio.IncompleteReadError, ValueError) as exc:
            status, response = 0, {"error": repr(exc)}
        done = time.monotonic()
        outcomes.append({"path": path, "body": body, "status": status,
                         "response": response, "expected": expected,
                         "due": due_abs, "sent": sent, "done": done})
        return done

    async def send(due_abs, path, body, expected):
        writing = path == "/graph/delta"
        if writing:
            pending[0] += 1
            settled.clear()
            await writes.acquire()
        elif body.get("dataset") == MUTATED:
            await settled.wait()
        connection = await idle.get()
        done = await request(connection, due_abs, path, body, expected)
        if writing:
            await request(connection, done, "/sweep", refresh_body(), None)
            writes.release()
            pending[0] -= 1
            if not pending[0]:
                settled.set()
        idle.put_nowait(connection)

    start = time.monotonic() + 0.05
    for offset, path, body, expected in schedule:
        due_abs = start + offset
        delay = due_abs - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.create_task(
            send(due_abs, path, body, expected)))
    await asyncio.gather(*tasks)
    for connection in connections:
        await connection.close()
    return start, outcomes, warm


# -- correctness --------------------------------------------------------------

def check_outcomes(outcomes, seed: int, scale: int
                   ) -> Tuple[List[str], Dict[str, str]]:
    """Status and version checks, one result per versioned cell, then
    exact re-pricing of a sample.  Returns the failures and, per served
    cell, a digest of its result."""
    failures = []
    priced: List[Tuple[Dict[str, object], Dict[str, object]]] = []
    for outcome in outcomes:
        status, response = outcome["status"], outcome["response"]
        if status != 200:
            failures.append(f"{outcome['path']} -> {status}: "
                            f"{str(response)[:200]}")
            continue
        if outcome["path"] == "/graph/delta":
            if response.get("dataset") != outcome["expected"]:
                failures.append(f"delta produced "
                                f"{response.get('dataset')}, expected "
                                f"{outcome['expected']}")
        elif outcome["path"] == "/sweep":
            priced += [(cell, cell["metrics"])
                       for cell in response["cells"]]
        else:
            priced.append((response["request"], response["metrics"]))
            if outcome["path"] == "/simulate":
                base = dict(response["request"], scheme="push")
                priced.append((base, response["baseline"]))
    rng = random.Random(seed * 31 + 7)
    sample = rng.sample(priced, min(VERIFY_SAMPLE, len(priced)))
    failures += reprice(sample, scale)
    served: Dict[str, str] = {}
    for request, metrics in priced:
        cell, text = priced_record(request, metrics)
        if served.setdefault(cell, text) != text:
            failures.append(f"{cell} was served two different results")
    return failures, {cell: digest([text]) for cell, text in served.items()}


def reprice(sample, scale: int) -> List[str]:
    from repro.jobs.cache import StoreConfig
    from repro.serve.protocol import metrics_to_json
    from repro.stages import StagePricer
    pricer = StagePricer(scale=scale, store=StoreConfig())
    failures = []
    for request, served in sorted(sample, key=lambda item: (
            item[0]["app"], item[0]["dataset"],
            item[0]["preprocessing"], item[0]["scheme"])):
        metrics = pricer.price(request["app"], request["scheme"],
                               request["dataset"],
                               request["preprocessing"])
        if metrics_to_json(metrics) != served:
            failures.append(f"re-priced {request.get('cell')} differs "
                            f"from the served result")
    return failures


# -- the workload -------------------------------------------------------------

def _load_phase(seed: int, seconds: float, trace: bool, work_dir: str,
                tag: str, scale: int):
    from repro.graph.datasets import clear_cache
    # The server must fork with no delta versions registered; this
    # process registers the schedule's versions only after the fork.
    clear_cache()
    store_root = os.path.join(work_dir, f"store-{tag}")
    child, conn, hello = start_server(store_root, scale, trace)
    try:
        schedule = make_schedule(seed, seconds, scale)
        if hello.get("pool") != "up":
            raise RuntimeError("the process pool did not start")
        cores = _pin_to_first_core()
        try:
            start, outcomes, warm = asyncio.run(drive(
                hello["port"], schedule, os.cpu_count() or 1,
                lambda: conn.send("measure")))
        finally:
            os.sched_setaffinity(0, cores)
    finally:
        server = stop_server(child, conn)
    if "error" in server:
        raise RuntimeError(f"server failed: {server['error']}")
    return start, outcomes, warm, server


def _latency_metrics(start: float, outcomes) -> Dict[str, float]:
    latencies = [1e3 * (o["done"] - o["due"]) for o in outcomes]
    good = sum(1 for o, ms in zip(outcomes, latencies)
               if o["status"] == 200 and ms <= LATENCY_LIMIT_MS)
    makespan = max(o["done"] for o in outcomes) - start
    return {"p50_ms": percentile(latencies, 50),
            "p99_ms": percentile(latencies, 99),
            "goodput_rps": good / makespan,
            "makespan_s": makespan}


def run_workload(seed: int, seconds: float, trace: bool,
                 work_dir: str, scale: int = SERVE_SCALE
                 ) -> Dict[str, object]:
    log("serve_mixed: timing start-up (fresh interpreter + ServeApp)")
    probe_root = os.path.join(work_dir, "probe")
    probe = SetupProbe(
        "import os; from repro.jobs.cache import StoreConfig;"
        "from repro.serve import ServeApp;"
        f"ServeApp(scale={scale}, workers=os.cpu_count() or 1,"
        " backend='process', store_config=StoreConfig("
        f"root={probe_root!r}, stream_partitions={PARTITIONS})).close()")
    # Half the start-up samples before the load, half after it.
    probe.sample(6)

    phases = [("plain", False, seconds)]
    if trace:
        # Half untraced, half traced: the overhead is the difference.
        phases = [("plain", False, seconds / 2),
                  ("traced", True, seconds / 2)]
    failures: List[str] = []
    results = {}
    attempted = 0
    for tag, traced, length in phases:
        start, outcomes, warm, server = _load_phase(
            seed, length, traced, work_dir, tag, scale)
        attempted += len(outcomes)
        phase_failures, served = check_outcomes(outcomes, seed, scale)
        failures += phase_failures
        if not server.get("drained"):
            failures.append("server did not drain on shutdown")
        # A served result is a function of its versioned cell alone (a
        # version name is a digest of the graph's lineage), so it must
        # repeat in every run: the warm-up's results as a whole, and
        # each cell a run serves that an earlier run served too.
        drift = DriftCheck(f"serve_mixed-{scale}-warm").check({
            "warm": digest(f"{cell}={text}" for cell, text in sorted(warm)),
            "cells": len(warm)})
        drift += DriftCheck(f"serve_mixed-{scale}-served").check(
            served, partial=True)
        failures += [f"drift since an earlier run: {d}" for d in drift]
        results[tag] = (start, outcomes, server)
        latency = _latency_metrics(start, outcomes)
        log(f"serve_mixed[{tag}]: {len(outcomes)} requests, p50 "
            f"{latency['p50_ms']:.1f}ms p99 {latency['p99_ms']:.1f}ms "
            f"goodput {latency['goodput_rps']:.1f}/s, pool cpu "
            f"{server['cpu_s']:.2f}s, peak "
            f"{server['peak_rss_mb']:.0f}MB")

    probe.sample(6)
    start, outcomes, server = results["plain"]
    latency = _latency_metrics(start, outcomes)
    result: Dict[str, object] = {
        "attempted": attempted, "failures": failures,
        "samples": {"requests": len(outcomes)},
        "end_to_end": {
            "setup_s": metric(probe.median(), "s"),
            "report_s": metric(server["cpu_s"], "s"),
            "peak_rss_mb": metric(server["peak_rss_mb"], "MB"),
            "p50_ms": metric(latency["p50_ms"], "ms"),
            "p99_ms": metric(latency["p99_ms"], "ms"),
            "goodput_rps": metric(latency["goodput_rps"], "1/s"),
        }}
    if trace:
        t_start, t_outcomes, t_server = results["traced"]
        traced = _latency_metrics(t_start, t_outcomes)
        layers = dict(t_server["layers"])
        layers.update(client_layers(t_outcomes))
        layers["tail.p99_ms"] = latency["p99_ms"]
        layers["trace.p50_ms"] = traced["p50_ms"]
        layers["trace.overhead"] = traced["p50_ms"] / latency["p50_ms"] - 1
        result["layers"] = layers
    return result


def client_layers(outcomes) -> Dict[str, float]:
    """Ratios the responses carry, and how late the generator ran."""
    sources = [o["response"].get("source") for o in outcomes
               if o["status"] == 200 and o["path"] == "/price"]
    queue = [1e3 * (o["sent"] - o["due"]) for o in outcomes]
    return {
        "serve.hot_hit_ratio":
            sources.count("hot") / len(sources) if sources else 0.0,
        "serve.coalesced_ratio":
            sources.count("coalesced") / len(sources) if sources else 0.0,
        "serve.client_queue.ms": sum(queue) / len(queue),
    }
