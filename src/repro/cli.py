"""Command-line interface: ``python -m repro <command>``.

Commands:

``experiment <id> [--scale N]``
    Run one registered experiment (``fig07`` ... ``fig22``, ``table1``
    ... ``table3``, ``sorting``) and print its table.

``list``
    List available experiments, applications, datasets, schemes, codecs.

``schemes [--group G]``
    List registered schemes (base, overlay, default compression parts)
    for one registry group: ``paper``, ``cmh``, ``extensions``, ``all``.

``simulate --app A --scheme S --dataset D [--preprocessing P]``
    Simulate one configuration and print its metrics.

``compress --codec C [--data kind]``
    Demonstrate a codec on a chosen synthetic data distribution.

``traverse [--dataset D] [--rows N]``
    Run the functional fetcher over a compressed graph and report cycles
    and verification.

``report [--jobs N] [--cache-dir DIR] [--no-cache] [--telemetry F]``
    Run experiments through the job orchestrator (parallel workers,
    content-addressed result cache) and emit the markdown report.

``jobs [--telemetry F] [--cache-dir DIR]``
    Summarize the latest orchestrated run's JSONL telemetry (per-job
    timing, cache hits, retries) and the result cache's state.

``serve [--host H] [--port P] [--backend thread|process] [--workers N]``
    Run the simulation-as-a-service HTTP/JSON front end (price/
    simulate/sweep endpoints, request coalescing, cross-request
    batching, tiered result store) on the chosen compute backend
    until SIGINT/SIGTERM; shuts down gracefully, draining in-flight
    requests.  See docs/SERVING.md.

``perf diff <baseline.jsonl> --against <current.jsonl> [--threshold X]``
    Compare two span traces per span name and exit nonzero when any
    shared span's total seconds regressed past the threshold.

``perf summary <trace.jsonl>``
    Aggregate a span trace per name (calls, seconds, count).

``experiment``/``simulate``/``report`` additionally accept
``--trace PATH`` to record a hierarchical span trace of the run as
JSONL (see docs/OBSERVABILITY.md), and ``--perf`` to record the same
trace in memory and print its per-name summary on stderr.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from repro.jobs.cache import DEFAULT_CACHE_DIR


def _known(kind: str, name: str, valid) -> bool:
    """Whether ``name`` is registered; if not, say so and list ``valid``."""
    if name in valid:
        return True
    print(f"unknown {kind} {name!r}; have {', '.join(sorted(valid))}",
          file=sys.stderr)
    return False


def _cmd_list(_args) -> int:
    from repro.apps import ALL_APPS
    from repro.compression import available_codecs
    from repro.graph.datasets import DATASETS
    from repro.graph.preprocess import PREPROCESSORS
    from repro.harness import EXPERIMENTS
    from repro.schemes import scheme_names
    print("experiments:", ", ".join(sorted(EXPERIMENTS)))
    print("apps:       ", ", ".join(ALL_APPS))
    print("datasets:   ", ", ".join(sorted(DATASETS)))
    print("schemes:    ", ", ".join(scheme_names("all")))
    print("codecs:     ", ", ".join(available_codecs()))
    print("preprocess: ", ", ".join(PREPROCESSORS))
    return 0


def _cmd_schemes(args) -> int:
    """List registered schemes (optionally one group) with details."""
    from repro.schemes import (
        REGISTRY,
        UnknownSchemeError,
        default_parts,
    )
    try:
        names = REGISTRY.names(args.group)
    except UnknownSchemeError as err:
        print(err, file=sys.stderr)
        return 2
    memberships = {name: [g for g in REGISTRY.groups() if g != "all"
                          and name in REGISTRY.names(g)]
                   for name in names}
    for name in names:
        spec = REGISTRY.parse(name)
        parts = "-" if not spec.spzip else \
            "+".join(sorted(default_parts(spec.base)))
        print(f"{name:12s} group={','.join(memberships[name]):10s} "
              f"base={spec.base:4s} overlay={spec.overlay or '-':5s} "
              f"default-parts={parts}")
    print(f"total: {len(names)} schemes; groups: "
          f"{', '.join(REGISTRY.groups())}")
    return 0


def _cmd_experiment(args) -> int:
    from repro.harness import EXPERIMENTS, render_table
    from repro.jobs import JobRunner
    if not _known("experiment", args.id, EXPERIMENTS):
        return 2
    runner = JobRunner(scale=args.scale)
    result = EXPERIMENTS[args.id](runner)
    print(render_table(result))
    return 0


def _cmd_simulate(args) -> int:
    from repro.apps import ALL_APPS
    from repro.graph.datasets import DATASETS
    from repro.graph.preprocess import PREPROCESSORS
    from repro.schemes import (
        SchemeParseError,
        UnknownSchemeError,
        parse_scheme,
    )
    from repro.jobs import JobRunner
    if not (_known("app", args.app, ALL_APPS)
            and _known("dataset", args.dataset, DATASETS)
            and _known("preprocessing", args.preprocessing,
                       PREPROCESSORS)):
        return 2
    try:
        spec = parse_scheme(args.scheme)
    except (SchemeParseError, UnknownSchemeError) as err:
        print(err, file=sys.stderr)
        return 2
    runner = JobRunner(scale=args.scale)
    run = runner.run(args.app, spec, args.dataset,
                     args.preprocessing)
    base = runner.run(args.app, "push", args.dataset, args.preprocessing)
    print(f"app={run.app} scheme={run.scheme} dataset={run.dataset} "
          f"preprocessing={run.preprocessing}")
    print(f"cycles:         {run.cycles:.0f} "
          f"(compute {run.compute_cycles:.0f}, "
          f"memory {run.memory_cycles:.0f}; "
          f"{'memory' if run.bandwidth_bound else 'core'}-bound)")
    print(f"speedup vs push: {run.speedup_over(base):.2f}x")
    print(f"traffic vs push: {run.traffic_ratio_over(base):.2f}x")
    print("traffic by class (bytes):")
    for cls, nbytes in run.traffic.items():
        print(f"  {cls:20s} {nbytes:,.0f}")
    return 0


def _cmd_compress(args) -> int:
    from repro.compression import available_codecs, make_codec
    rng = np.random.default_rng(0)
    generators = {
        "sorted-ids": lambda: np.sort(rng.integers(0, 50_000, 1024)
                                      ).astype(np.uint32),
        "clustered": lambda: (10 ** 6 + np.cumsum(
            rng.integers(0, 8, 1024))).astype(np.uint32),
        "random": lambda: rng.integers(0, 2 ** 32, 1024,
                                       dtype=np.uint64
                                       ).astype(np.uint32),
        "runs": lambda: np.repeat(
            rng.integers(0, 100, 32).astype(np.uint32), 32),
        "floats": lambda: rng.standard_normal(1024
                                              ).astype(np.float32),
    }
    if not (_known("codec", args.codec, available_codecs())
            and _known("data kind", args.data, generators)):
        return 2
    data = generators[args.data]()
    codec = make_codec(args.codec)
    encoded = codec.encode(data)
    decoded = codec.decode(encoded, data.size, data.dtype)
    ok = np.array_equal(decoded, data)
    raw = data.size * data.dtype.itemsize
    print(f"codec={args.codec} data={args.data}: {raw} B -> "
          f"{len(encoded)} B ({raw / len(encoded):.2f}x), "
          f"roundtrip {'OK' if ok else 'FAILED'}")
    return 0 if ok else 1


def _cmd_report(args) -> int:
    from repro.harness import EXPERIMENTS, generate_report
    from repro.jobs import JobRunner
    ids = args.experiments or None
    if not all(_known("experiment", i, EXPERIMENTS) for i in ids or ()):
        return 2
    runner = JobRunner(
        scale=args.scale, jobs=args.jobs,
        cache_dir=None if args.no_cache else args.cache_dir,
        telemetry_path=args.telemetry,
        timeout=args.timeout, retries=args.retries,
        progress=print if not args.out else None,
        partitions=args.partitions)
    report = generate_report(runner, experiment_ids=ids, progress=True)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(report)
        print(f"wrote {args.out}")
    else:
        print(report)
    if runner.telemetry_path:
        print(f"telemetry: {runner.telemetry_path}", file=sys.stderr)
    return 0


def _cmd_jobs(args) -> int:
    """Inspect orchestration state: telemetry summaries, cache."""
    from repro.jobs import (
        ResultCache,
        latest_telemetry,
        render_summary,
        summarize,
    )
    status = 0
    path = args.telemetry or latest_telemetry(args.cache_dir)
    if path:
        try:
            summary = summarize(path)
        except (OSError, ValueError) as err:
            print(f"cannot summarize {path!r}: {err}", file=sys.stderr)
            return 2
        print(render_summary(summary))
    else:
        print(f"no telemetry found under {args.cache_dir!r}; run "
              f"`python -m repro report --cache-dir {args.cache_dir}` "
              f"first", file=sys.stderr)
        status = 1
    cache = ResultCache(args.cache_dir)
    stats = cache.stats()
    print(f"cache:     {stats['entries']} entries, "
          f"{stats['bytes'] / 1024:.1f} KiB in {stats['segments']} "
          f"segment(s) under {cache.root}")
    return status


def _cmd_serve(args) -> int:
    """Run the asyncio serving front end until interrupted."""
    import asyncio
    import signal

    from repro.jobs.cache import StoreConfig
    from repro.serve import ServeApp, ServeServer

    store_config = StoreConfig(
        root=None if args.no_cache else args.cache_dir,
        stream_partitions=args.partitions,
        hot_capacity=args.hot_capacity)
    app = ServeApp(scale=args.scale, workers=args.workers,
                   admission_limit=args.max_concurrency,
                   backend=args.backend,
                   batch_window_s=args.batch_window,
                   batch_max=args.batch_max,
                   store_config=store_config)

    async def run() -> bool:
        server = await ServeServer(app, args.host, args.port).start()
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):
                pass  # non-Unix event loop; Ctrl-C still raises
        print(f"serving on {server.url} (scale={app.scale}, "
              f"backend={app.backend.name}, workers={app.workers}, "
              f"cache={'off' if args.no_cache else args.cache_dir})",
              file=sys.stderr)
        try:
            drained = await server.serve_until(
                stop, drain_timeout=args.drain_timeout)
        except asyncio.CancelledError:
            drained = await server.shutdown(args.drain_timeout)
        print(f"shutdown: "
              f"{'drained' if drained else 'drain timed out'}; "
              f"{app.computes} computation(s), "
              f"{app.flight.followers} coalesced request(s)",
              file=sys.stderr)
        return drained

    try:
        drained = asyncio.run(run())
    except KeyboardInterrupt:
        return 0
    return 0 if drained else 1


def _cmd_perf(args) -> int:
    """Timing comparison and trace aggregation."""
    from repro.obs import (
        diff_timings,
        load_timings,
        render_diff,
        render_trace_summary,
    )
    if args.perf_command == "summary":
        try:
            if not args.trace.endswith(".jsonl"):
                raise ValueError("expected a span trace (.jsonl)")
            print(render_trace_summary(args.trace))
        except (OSError, ValueError) as err:
            print(f"cannot summarize {args.trace!r}: {err}",
                  file=sys.stderr)
            return 2
        return 0
    # diff
    try:
        baseline = load_timings(args.baseline)
        current = load_timings(args.against)
        regressions, compared = diff_timings(baseline, current,
                                             args.threshold)
    except (OSError, ValueError) as err:
        print(f"perf diff failed: {err}", file=sys.stderr)
        return 2
    print(render_diff(regressions, compared, args.threshold))
    return 1 if regressions else 0


def _cmd_traverse(args) -> int:
    from repro.config import SpZipConfig
    from repro.dcl import pack_range
    from repro.engine import (
        DriveRequest,
        INPUT_QUEUE,
        ROWS_QUEUE,
        Fetcher,
        compressed_csr_traversal,
        drive,
    )
    from repro.graph import DATASETS, CompressedCsr, load
    from repro.memory import AddressSpace
    if not _known("dataset", args.dataset, DATASETS):
        return 2
    graph = load(args.dataset, args.scale)
    rows = min(args.rows, graph.num_vertices)
    compressed = CompressedCsr(graph)
    space = AddressSpace()
    space.alloc_array("offsets", compressed.offsets, "adjacency")
    space.alloc_array("payload",
                      np.frombuffer(compressed.payload, dtype=np.uint8),
                      "adjacency")
    fetcher = Fetcher.from_program(compressed_csr_traversal(), space,
                                   SpZipConfig())
    result = drive(fetcher, DriveRequest(
        feeds={INPUT_QUEUE: [pack_range(0, rows + 1)]},
        consume=[ROWS_QUEUE], dequeues_per_cycle=4, max_cycles=10 ** 8))
    chunks = result.chunks(ROWS_QUEUE)
    edges = sum(len(c) for c in chunks)
    ok = all(chunks[v] == graph.row(v).tolist() for v in range(rows))
    print(f"{args.dataset}: traversed {rows} rows / {edges} edges in "
          f"{result.cycles} cycles "
          f"(adjacency ratio {compressed.compression_ratio():.2f}x); "
          f"verification {'OK' if ok else 'FAILED'}")
    return 0 if ok else 1


def _require(value, ok: bool, rule: str):
    if not ok:
        raise argparse.ArgumentTypeError(f"must be {rule}, got {value}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    return _require(value, value >= 1, "a positive integer")


def _nonnegative_int(text: str) -> int:
    value = int(text)
    return _require(value, value >= 0, "a non-negative integer")


def _positive_float(text: str) -> float:
    value = float(text)
    return _require(value, value > 0, "a positive number")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="SpZip reproduction command-line interface")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments/apps/datasets/codecs")

    schemes = sub.add_parser("schemes",
                             help="list registered schemes and groups")
    schemes.add_argument("--group", default="all",
                         help="registry group (paper, cmh, extensions, "
                              "all)")

    experiment = sub.add_parser("experiment",
                                help="run one table/figure experiment")
    experiment.add_argument("id")
    experiment.add_argument("--scale", type=_positive_int, default=4096)
    experiment.add_argument("--perf", action="store_true",
                            help="trace the run and print its per-span "
                                 "summary to stderr")
    experiment.add_argument("--trace", default=None, metavar="PATH",
                            help="write a span trace (JSONL) of the run")

    simulate = sub.add_parser("simulate",
                              help="simulate one app/scheme/input")
    simulate.add_argument("--app", default="bfs")
    simulate.add_argument("--scheme", default="phi+spzip")
    simulate.add_argument("--dataset", default="ukl")
    simulate.add_argument("--preprocessing", default="none")
    simulate.add_argument("--scale", type=_positive_int, default=4096)
    simulate.add_argument("--perf", action="store_true",
                          help="trace the run and print its per-span "
                               "summary to stderr")
    simulate.add_argument("--trace", default=None, metavar="PATH",
                          help="write a span trace (JSONL) of the run")

    compress = sub.add_parser("compress", help="demo a codec")
    compress.add_argument("--codec", default="delta")
    compress.add_argument("--data", default="sorted-ids")

    report = sub.add_parser("report",
                            help="run all experiments, emit markdown")
    report.add_argument("--out", default=None)
    report.add_argument("--scale", type=_positive_int, default=4096)
    report.add_argument("--experiments", nargs="*", default=None)
    report.add_argument("--jobs", type=_positive_int, default=1,
                        help="worker processes (1 = in-process)")
    report.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                        help="content-addressed result cache root")
    report.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk result cache")
    report.add_argument("--telemetry", default=None,
                        help="JSONL telemetry path (default: under the "
                             "cache dir)")
    report.add_argument("--timeout", type=_positive_float, default=None,
                        help="per-job-group timeout in seconds")
    report.add_argument("--retries", type=_nonnegative_int, default=1,
                        help="retries per failed/timed-out job group")
    report.add_argument("--partitions", type=_positive_int, default=1,
                        help="vertex-range partitions of the stream "
                             "stage (K>1 enables graph-delta partition "
                             "reuse)")
    report.add_argument("--perf", action="store_true",
                        help="trace the run and print its per-span "
                             "summary to stderr")
    report.add_argument("--trace", default=None, metavar="PATH",
                        help="write a span trace (JSONL) covering the "
                             "whole report, including pool workers")

    jobs = sub.add_parser("jobs",
                          help="summarize orchestration telemetry and "
                               "cache state")
    jobs.add_argument("--telemetry", default=None,
                      help="telemetry JSONL to summarize (default: "
                           "latest under the cache dir)")
    jobs.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR)

    serve = sub.add_parser("serve",
                           help="run the HTTP/JSON serving front end")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8377,
                       help="listen port (0 picks a free port)")
    serve.add_argument("--workers", type=_positive_int, default=4,
                       help="compute pool width (threads or worker "
                            "processes, per --backend)")
    serve.add_argument("--backend", choices=("thread", "process"),
                       default="thread",
                       help="compute backend: in-process threads, or "
                            "a sharded OS-process worker pool")
    serve.add_argument("--max-concurrency", type=_positive_int,
                       default=None,
                       help="admission limit on concurrent group "
                            "dispatches (default: --workers)")
    serve.add_argument("--batch-window", type=float, default=0.002,
                       metavar="SECONDS",
                       help="how long a batch waits for same-profile "
                            "company before dispatching")
    serve.add_argument("--batch-max", type=_positive_int, default=16,
                       help="cells per execute_group dispatch ceiling")
    serve.add_argument("--scale", type=_positive_int, default=4096)
    serve.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                       help="on-disk tier of the result store")
    serve.add_argument("--no-cache", action="store_true",
                       help="serve from the in-process hot tier only")
    serve.add_argument("--hot-capacity", type=_positive_int,
                       default=1024,
                       help="hot-tier LRU entry bound")
    serve.add_argument("--partitions", type=_positive_int, default=1,
                       help="vertex-range partitions of the stream "
                            "stage (K>1 lets POST /graph/delta reuse "
                            "untouched partitions)")
    serve.add_argument("--drain-timeout", type=float, default=30.0,
                       help="seconds to wait for in-flight requests "
                            "on shutdown")
    serve.add_argument("--trace", default=None, metavar="PATH",
                       help="write a span trace (JSONL) of the "
                            "server's lifetime on shutdown")

    perf = sub.add_parser("perf",
                          help="timing diffs and trace summaries")
    perf_sub = perf.add_subparsers(dest="perf_command", required=True)
    diff = perf_sub.add_parser("diff",
                               help="compare two span traces, exit "
                                    "nonzero on regression")
    diff.add_argument("baseline", help="baseline trace JSONL")
    diff.add_argument("--against", required=True,
                      help="current trace JSONL")
    diff.add_argument("--threshold", type=float, default=1.5,
                      help="regression ratio (must be > 1.0)")
    summary = perf_sub.add_parser("summary",
                                  help="aggregate a span trace by name")
    summary.add_argument("trace", help="trace JSONL path")

    traverse = sub.add_parser("traverse",
                              help="run the functional fetcher")
    traverse.add_argument("--dataset", default="ukl")
    traverse.add_argument("--rows", type=_positive_int, default=500)
    traverse.add_argument("--scale", type=_positive_int, default=4096)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "list": _cmd_list,
        "schemes": _cmd_schemes,
        "experiment": _cmd_experiment,
        "simulate": _cmd_simulate,
        "compress": _cmd_compress,
        "traverse": _cmd_traverse,
        "report": _cmd_report,
        "jobs": _cmd_jobs,
        "serve": _cmd_serve,
        "perf": _cmd_perf,
    }
    trace_path = getattr(args, "trace", None) \
        if args.command != "perf" else None
    perf = getattr(args, "perf", False)
    if not (trace_path or perf):
        return handlers[args.command](args)
    from repro.obs import TRACER, render_spans
    TRACER.start()
    try:
        status = handlers[args.command](args)
    finally:
        TRACER.stop()
        if trace_path:
            count = TRACER.save(trace_path)
            print(f"trace: {trace_path} ({count} spans)",
                  file=sys.stderr)
    if perf:
        print(render_spans("perf: spans of this run, heaviest first",
                           TRACER.spans), file=sys.stderr)
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
