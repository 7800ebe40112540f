"""Perf smoke test: vectorized replay kernels vs. scalar references.

Generates scatter streams shaped like the traffic model's real replays
(sorted neighbor runs with a power-law hub skew, 16 destinations per
line) in two regimes:

* **binned** — destination ranges bounded the way the paper's binned
  schemes bound them (each bin's slice of the destination array fits in
  the cache budget).  This is the profiling hot path, and the regime
  the batch kernel's all-fit shortcut fully vectorizes.
* **unbinned** — one unbounded stream whose working set thrashes the
  cache.  Exact LRU decisions here are irreducibly sequential; the
  adaptive kernel detects this and falls back to a collapsed-trace
  walk, so the expectation is parity (~1x), not a win.

A fourth section times the SpZip engine itself: the same compressed-CSR
traversal driven through the per-cycle reference loop and the
event-driven core (skip-ahead + bursts) on an MLP-limited configuration
(single-outstanding-line access unit, 300-cycle memory), with the two
modes asserted cycle-identical before either is timed.

Three further sections time the array-native profiling front end
against its scalar oracles: the per-strategy stream generators
(``stream_gen``), the vectorized codec size models (``codec_sizing``),
and a full iteration profile — the uncached stage composition
(``repro.sim.runner.profile_workload``: stream → replay → compress →
assemble) vs ``profile_iteration_scalar`` (section
``profile_iteration``, the end-to-end proxy for full-report
wall-clock).  Each is asserted bit-identical before timing.

Every kernel result is checked against the scalar reference before
timings are recorded in ``BENCH_pr9.json``.  Exits nonzero if any
kernel diverges, the binned Push-scatter speedup falls below the 3x
floor, the event-driven engine or any array-native section falls below
its 5x floor, or active tracing costs more than
:data:`TRACING_OVERHEAD_CEILING` on the span-per-stream replay run.

The replay section names (``push_scatter_binned`` ...) match the
committed ``BENCH_pr5.json`` baseline, so the two diff cleanly (the
array-native sections are new in this file and simply don't
participate)::

    PYTHONPATH=src python -m repro perf diff BENCH_pr5.json \
        --against BENCH_pr9.json

Run with::

    PYTHONPATH=src python benchmarks/perf_smoke.py \
        [--out BENCH_pr9.json] [--trace TRACE.jsonl]
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time

import numpy as np

from repro.config import SpZipConfig
from repro.dcl import pack_range
from repro.engine import (
    INPUT_QUEUE,
    MODE_CYCLE,
    MODE_EVENT,
    ROWS_QUEUE,
    DriveRequest,
    Fetcher,
    compressed_csr_traversal,
    drive,
)
from repro.graph import CompressedCsr, community_graph
from repro.memory import AddressSpace, FastLruCache
from repro.obs import TRACER, summarize_spans
from repro.runtime.traffic import lru_scatter_replay, phi_coalesce_replay
from repro.runtime.traffic_array import (
    lru_scatter_oracle,
    phi_coalesce_oracle,
)

#: Minimum acceptable speedup for the binned Push destination-scatter
#: replay (the profiling hot path).
SCATTER_SPEEDUP_FLOOR = 3.0

#: Minimum acceptable speedup of the event-driven engine core over the
#: per-cycle reference on the MLP-limited traversal below.
ENGINE_SPEEDUP_FLOOR = 5.0

#: Minimum acceptable speedup of each array-native section (stream
#: generation, codec sizing, full iteration profile) over its scalar
#: oracle.
ARRAY_NATIVE_SPEEDUP_FLOOR = 5.0

#: Maximum acceptable fractional slowdown of a span-per-stream replay
#: run with the tracer recording vs. inactive (5%).
TRACING_OVERHEAD_CEILING = 0.05

#: Destinations per bin: the default model config's LLC budget at 4-byte
#: values (SystemConfig().scaled(DEFAULT_SCALE) gives a 32 KiB model
#: LLC; vertices_per_bin = 0.5 * 32768 / 4 = 4096).
BIN_VERTICES = 4096
CAPACITY_LINES = 512
VALUES_PER_LINE = 16  # 4-byte destination values, 64-byte lines


def make_rows(rng, num_rows, num_dsts, base=0):
    """Sorted neighbor runs with zipf-skewed hubs, like a CSR scatter."""
    return [base + np.sort(rng.zipf(1.25, rng.integers(4, 80))
                           % num_dsts)
            for _ in range(num_rows)]


def make_binned_streams(num_bins, rows_per_bin, seed=7):
    rng = np.random.default_rng(seed)
    streams = []
    for b in range(num_bins):
        dsts = np.concatenate(
            make_rows(rng, rows_per_bin, BIN_VERTICES,
                      base=b * BIN_VERTICES))
        streams.append((dsts // VALUES_PER_LINE).astype(np.int64))
    return streams


def make_unbinned_stream(num_rows, num_dsts, seed=11):
    rng = np.random.default_rng(seed)
    dsts = np.concatenate(make_rows(rng, num_rows, num_dsts))
    return (dsts // VALUES_PER_LINE).astype(np.int64)


def timeit(fn, repeats=3):
    """Best-of-N wall time and the function's result."""
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def bench_scatter(streams, capacity):
    scalar_s, scalar_out = timeit(
        lambda: [lru_scatter_oracle(s, capacity) for s in streams])
    batch_s, batch_out = timeit(
        lambda: [lru_scatter_replay(s, capacity) for s in streams])
    assert scalar_out == batch_out, "scatter replay diverged"
    return {
        "accesses": int(sum(s.size for s in streams)),
        "streams": len(streams),
        "capacity_lines": capacity,
        "misses": int(sum(m for m, _ in batch_out)),
        "scalar_s": scalar_s,
        "batch_s": batch_s,
        "speedup": scalar_s / batch_s,
    }


def bench_phi_coalesce(streams, capacity):
    def run(fn):
        out = []
        for lines in streams:
            dsts = lines * VALUES_PER_LINE  # line-granular dst ids
            values = (np.arange(dsts.size, dtype=np.uint64)
                      * 2654435761).astype(np.uint32)
            out.append(fn(dsts, values, 4, capacity))
        return out

    scalar_s, scalar_out = timeit(lambda: run(phi_coalesce_oracle))
    batch_s, batch_out = timeit(lambda: run(phi_coalesce_replay))
    for (ia, va, la), (ib, vb, lb) in zip(scalar_out, batch_out):
        assert np.array_equal(ia, ib) and np.array_equal(va, vb) \
            and la == lb, "phi coalescing replay diverged"
    return {
        "updates": int(sum(s.size for s in streams)),
        "capacity_lines": capacity,
        "scalar_s": scalar_s,
        "batch_s": batch_s,
        "speedup": scalar_s / batch_s,
    }


def bench_access_many(streams, capacity):
    def scalar():
        stats = []
        for lines in streams:
            cache = FastLruCache(capacity)
            writes = (lines % 3) == 0
            for line, write in zip(lines.tolist(), writes.tolist()):
                cache.access(line, write)
            stats.append(vars(cache.stats))
        return stats

    def batch():
        stats = []
        for lines in streams:
            cache = FastLruCache(capacity)
            cache.access_many(lines, (lines % 3) == 0)
            stats.append(vars(cache.stats))
        return stats

    scalar_s, scalar_stats = timeit(scalar)
    batch_s, batch_stats = timeit(batch)
    assert scalar_stats == batch_stats, "access_many stats diverged"
    return {
        "accesses": int(sum(s.size for s in streams)),
        "capacity_lines": capacity,
        "scalar_s": scalar_s,
        "batch_s": batch_s,
        "speedup": scalar_s / batch_s,
    }


def bench_tracing_overhead(streams, capacity, repeats=5):
    """Cost of recording one span per stream replay, on vs. off.

    The workload (binned scatter replays) matches the profiling hot
    path; the span density (one ``bench.scatter`` span per stream) is
    far above what the instrumented production paths emit per unit of
    work, so staying under the ceiling here bounds them too.
    """
    def run():
        out = 0
        for i, lines in enumerate(streams):
            with TRACER.span("bench.scatter", count=int(lines.size),
                             stream=i):
                misses, _ = lru_scatter_replay(lines, capacity)
                out += misses
        return out

    assert not TRACER.active, "tracer must be off for the baseline leg"
    untraced_s, untraced_out = timeit(run, repeats)
    TRACER.start()
    try:
        traced_s, traced_out = timeit(run, repeats)
        spans = len(TRACER.spans)
    finally:
        TRACER.stop()
    assert untraced_out == traced_out, "tracing changed replay results"
    return {
        "streams": len(streams),
        "spans_per_run": spans // repeats,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "overhead": max(0.0, traced_s / untraced_s - 1.0),
        "ceiling": TRACING_OVERHEAD_CEILING,
    }


def bench_engine_drive(walk=1000, mem_latency=300):
    """Per-cycle reference vs event-driven engine on one traversal.

    The workload is deliberately MLP-limited — a single-outstanding-line
    access unit against 300-cycle memory — so nearly every simulated
    cycle is an idle wait the event core can skip.  Both modes are
    asserted cycle-identical (cycles, outputs, fires, idle accounting)
    before either leg is timed.
    """
    graph = community_graph(2000, 16000, seed_stream="perf")
    cc = CompressedCsr(graph)
    space = AddressSpace()
    space.alloc_array("offsets", cc.offsets, "adjacency")
    space.alloc_array("payload",
                      np.frombuffer(cc.payload, dtype=np.uint8),
                      "adjacency")
    request = DriveRequest(feeds={INPUT_QUEUE: [pack_range(0, walk + 1)]},
                           consume=(ROWS_QUEUE,), dequeues_per_cycle=4,
                           max_cycles=10 ** 8)

    def run(mode):
        engine = Fetcher.from_program(
            compressed_csr_traversal(), space,
            SpZipConfig(au_outstanding_lines=1),
            mem_latency=mem_latency, mode=mode)
        return drive(engine, request)

    ref = run(MODE_CYCLE)
    evt = run(MODE_EVENT)
    assert (evt.cycles, evt.outputs, evt.fires_by_op, evt.idle_cycles) \
        == (ref.cycles, ref.outputs, ref.fires_by_op, ref.idle_cycles), \
        "event-driven engine diverged from per-cycle reference"
    cycle_s, _ = timeit(lambda: run(MODE_CYCLE))
    event_s, _ = timeit(lambda: run(MODE_EVENT))
    return {
        "engine_cycles": ref.cycles,
        "walked_rows": walk,
        "mem_latency": mem_latency,
        "au_outstanding_lines": 1,
        "idle_cycles": ref.idle_cycles,
        "skipped_idle_cycles": evt.skipped_idle_cycles,
        "cycle_s": cycle_s,
        "event_s": event_s,
        "speedup": cycle_s / event_s,
    }


def bench_stream_gen():
    """Array-native stream generators vs their scalar oracles.

    One representative pass per strategy over a sparse frontier of a
    mid-size community graph: the CSR row gather, Push's destination
    scatter lines, Update Batching's bin-stable sort, and Pull's
    line-granular gather.  Outputs are asserted identical before the
    two sides are timed as one aggregate.
    """
    from repro.runtime import traffic_array as ta

    graph = community_graph(8000, 110_000, seed_stream="perf9")
    degrees = graph.out_degrees()
    sources = np.arange(0, graph.num_vertices, 2)
    dsts = ta.gather_row_stream(graph.offsets, graph.neighbors,
                                degrees, sources, graph.num_vertices)
    values = (dsts.astype(np.uint64) * 2654435761).astype(np.uint32)
    vpb = BIN_VERTICES

    def fast():
        d = ta.gather_row_stream(graph.offsets, graph.neighbors,
                                 degrees, sources, graph.num_vertices)
        return (d, ta.push_scatter_lines(d, 4),
                ta.ub_bin_stream(d, values, vpb),
                ta.pull_gather_lines(d, 4))

    def slow():
        d = ta.gather_row_stream_scalar(graph.offsets, graph.neighbors,
                                        degrees, sources,
                                        graph.num_vertices)
        return (d, ta.push_scatter_lines_scalar(d, 4),
                ta.ub_bin_stream_scalar(d, values, vpb),
                ta.pull_gather_lines_scalar(d, 4))

    f, s = fast(), slow()
    assert np.array_equal(f[0], s[0]) and np.array_equal(f[1], s[1]) \
        and all(np.array_equal(a, b) if isinstance(a, np.ndarray)
                else a == b for a, b in zip(f[2], s[2])) \
        and np.array_equal(f[3], s[3]), "stream generators diverged"
    scalar_s, _ = timeit(slow)
    batch_s, _ = timeit(fast)
    return {
        "edges": int(dsts.size),
        "sources": int(sources.size),
        "scalar_s": scalar_s,
        "batch_s": batch_s,
        "speedup": scalar_s / batch_s,
    }


def bench_codec_sizing(elems=32_768):
    """Vectorized ``encoded_size`` vs the scalar-encoder oracle.

    Aggregates every registered codec over one id-like and one
    value-like array; ``oracle_size`` *is* ``len(encode(...))``, so the
    scalar leg pays for real encoding while the vectorized leg prices
    the same bytes in closed form.  Sizes are asserted equal per codec
    before timing.
    """
    from repro.compression import available_codecs, make_codec

    rng = np.random.default_rng(17)
    ids = np.sort(rng.integers(0, 4 * elems, elems, dtype=np.uint64)
                  .astype(np.uint32))
    vals = rng.integers(0, 2 ** 32, elems, dtype=np.uint64)
    codecs = [make_codec(name) for name in available_codecs()]
    for codec in codecs:
        for data in (ids, vals):
            assert codec.encoded_size(data) == codec.oracle_size(data), \
                f"{codec!r} size model diverged from its encoder"

    def total(sizer):
        return sum(sizer(codec, data)
                   for codec in codecs for data in (ids, vals))

    scalar_s, scalar_total = timeit(
        lambda: total(lambda c, d: c.oracle_size(d)))
    batch_s, batch_total = timeit(
        lambda: total(lambda c, d: c.encoded_size(d)))
    assert scalar_total == batch_total
    return {
        "codecs": len(codecs),
        "elems": elems,
        "total_bytes": int(batch_total),
        "scalar_s": scalar_s,
        "batch_s": batch_s,
        "speedup": scalar_s / batch_s,
    }


def bench_profile_iteration():
    """Full-report proxy: the stage composition vs the scalar profile.

    Profiling a workload (stream → replay → compress → assemble) is the
    per-identity unit of every figure's full-report sweep; the scalar
    oracle rebuilds the identical ``IterationProfile`` vertex by vertex.
    The workload has one iteration.  Equality is asserted first, then
    each side is timed (the scalar side once — it is the slow leg by
    design).
    """
    from repro.apps import pagerank
    from repro.config import SystemConfig
    from repro.runtime import ModelConfig
    from repro.runtime import traffic_array as ta
    from repro.sim.runner import profile_workload

    graph = community_graph(4000, 52_000, seed_stream="perf9-profile")
    workload = pagerank.build_workload(graph)
    cfg = ModelConfig(system=SystemConfig().scaled(4096), id_scale=4096)
    (iteration,) = workload.iterations

    fast = profile_workload(workload, cfg)
    slow = [ta.profile_iteration_scalar(workload, iteration, cfg)]
    assert fast == slow, "scalar profile oracle diverged"
    scalar_s, _ = timeit(
        lambda: ta.profile_iteration_scalar(workload, iteration, cfg),
        repeats=1)
    batch_s, _ = timeit(lambda: profile_workload(workload, cfg))
    return {
        "vertices": graph.num_vertices,
        "edges": graph.num_edges,
        "scalar_s": scalar_s,
        "batch_s": batch_s,
        "speedup": scalar_s / batch_s,
    }


def report(label, row):
    print(f"{label:22s}: {row['scalar_s']:.3f}s scalar / "
          f"{row['batch_s']:.3f}s batch = {row['speedup']:.1f}x",
          file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_pr9.json",
                        help="where to write the results JSON")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="also write a span trace (JSONL) of the "
                             "benchmark run")
    parser.add_argument("--bins", type=int, default=100)
    parser.add_argument("--rows-per-bin", type=int, default=400)
    args = parser.parse_args(argv)

    binned = make_binned_streams(args.bins, args.rows_per_bin)
    unbinned = make_unbinned_stream(args.bins * args.rows_per_bin,
                                    200_000)

    # The overhead bench runs first: its untraced leg needs the tracer
    # off, and it starts/stops the tracer for its traced leg itself.
    overhead = bench_tracing_overhead(binned, CAPACITY_LINES)
    print(f"{'tracing overhead':22s}: {overhead['untraced_s']:.3f}s off "
          f"/ {overhead['traced_s']:.3f}s on = "
          f"{100 * overhead['overhead']:.1f}% "
          f"({overhead['spans_per_run']} spans/run)", file=sys.stderr)

    TRACER.start(trace_id="perf-smoke")
    with TRACER.span("bench.push_scatter_binned"):
        push = bench_scatter(binned, CAPACITY_LINES)
    report("push scatter (binned)", push)
    with TRACER.span("bench.push_scatter_unbinned"):
        push_unbinned = bench_scatter([unbinned], CAPACITY_LINES)
    report("push scatter (thrash)", push_unbinned)
    with TRACER.span("bench.phi_coalesce"):
        phi = bench_phi_coalesce(binned[:25], CAPACITY_LINES)
    report("phi coalesce (binned)", phi)
    with TRACER.span("bench.fast_lru_access_many"):
        cache = bench_access_many(binned[:25], CAPACITY_LINES)
    report("access_many (binned)", cache)
    with TRACER.span("bench.engine_drive"):
        engine = bench_engine_drive()
    print(f"{'engine drive':22s}: {engine['cycle_s']:.3f}s cycle / "
          f"{engine['event_s']:.3f}s event = "
          f"{engine['speedup']:.1f}x "
          f"({engine['engine_cycles']} cycles, "
          f"{engine['skipped_idle_cycles']} skipped)", file=sys.stderr)
    with TRACER.span("bench.stream_gen"):
        streams_row = bench_stream_gen()
    report("stream generation", streams_row)
    with TRACER.span("bench.codec_sizing"):
        sizing = bench_codec_sizing()
    report("codec sizing", sizing)
    with TRACER.span("bench.profile_iteration"):
        profile = bench_profile_iteration()
    report("iteration profile", profile)
    trace_summary = summarize_spans(TRACER.spans)
    if args.trace:
        spans = TRACER.save(args.trace)
        print(f"trace: {args.trace} ({spans} spans)", file=sys.stderr)
    TRACER.stop()

    record = {
        "bench": "pr9_array_native",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "push_scatter_binned": push,
        "push_scatter_unbinned": push_unbinned,
        "phi_coalesce": phi,
        "fast_lru_access_many": cache,
        "engine_drive": engine,
        "stream_gen": streams_row,
        "codec_sizing": sizing,
        "profile_iteration": profile,
        "tracing_overhead": overhead,
        "trace_summary": trace_summary,
        "speedup_floor": SCATTER_SPEEDUP_FLOOR,
        "engine_speedup_floor": ENGINE_SPEEDUP_FLOOR,
        "array_native_speedup_floor": ARRAY_NATIVE_SPEEDUP_FLOOR,
    }
    with open(args.out, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.out}", file=sys.stderr)

    status = 0
    if push["speedup"] < SCATTER_SPEEDUP_FLOOR:
        print(f"FAIL: binned push-scatter speedup "
              f"{push['speedup']:.2f}x below "
              f"{SCATTER_SPEEDUP_FLOOR}x floor", file=sys.stderr)
        status = 1
    if engine["speedup"] < ENGINE_SPEEDUP_FLOOR:
        print(f"FAIL: event-driven engine speedup "
              f"{engine['speedup']:.2f}x below "
              f"{ENGINE_SPEEDUP_FLOOR}x floor", file=sys.stderr)
        status = 1
    for label, row in (("stream-gen", streams_row),
                       ("codec-sizing", sizing),
                       ("iteration-profile", profile)):
        if row["speedup"] < ARRAY_NATIVE_SPEEDUP_FLOOR:
            print(f"FAIL: {label} speedup {row['speedup']:.2f}x below "
                  f"{ARRAY_NATIVE_SPEEDUP_FLOOR}x floor",
                  file=sys.stderr)
            status = 1
    if overhead["overhead"] > TRACING_OVERHEAD_CEILING:
        print(f"FAIL: tracing overhead "
              f"{100 * overhead['overhead']:.1f}% above "
              f"{100 * TRACING_OVERHEAD_CEILING:.0f}% ceiling",
              file=sys.stderr)
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
