"""Randomized per-cycle vs event-driven equivalence suite.

The engine's loops (the drive loop, which ``SpZipEngine.run`` is with
no core attached, and the multicore lockstep loop, both over one
``tick`` with one idle skip-ahead) must be **cycle-identical** to the
per-cycle reference loops in ``tests/oracles/engine.py``: same cycle
counts, same outputs, same per-operator fire counts, same idle/activity
statistics, same memory traffic, same queue high-water marks.  This
suite drives the same randomized workload through both and compares
everything observable — the ``repro.memory.batch`` equivalence playbook
applied to the engine.

Coverage:

* generated DCL programs (random chains over fetch/expand/decompress/
  prefetch operator graphs, random fan-out) on random graphs;
* the prebuilt paper pipelines (CSR, compressed CSR, PageRank, BFS) and
  the compressor pipelines (single-stream, update-binning MQUs);
* hostile configurations: single-outstanding-line access units, one-byte
  FU throughput, near-zero-credit scratchpads, slow consumers;
* the multicore work-stealing runtime (makespan + per-core counters);
* stall parity: when the reference deadlocks, the engine must raise
  :class:`EngineStall` too (it concludes immediately instead of spinning
  10k no-op cycles, which is the one documented divergence).
"""

import random

import numpy as np
import pytest

from repro.compression import DeltaCodec
from repro.config import SpZipConfig, SystemConfig
from repro.dcl import pack_range, pack_tuple
from repro.dcl.program import Program
from repro.engine import (
    ACTIVE_QUEUE,
    BIN_QUEUE,
    CONTRIBS_QUEUE,
    INPUT_QUEUE,
    NEIGH_QUEUE,
    OFFSETS_INPUT_QUEUE,
    ROWS_QUEUE,
    Compressor,
    DriveRequest,
    EngineStall,
    Fetcher,
    bfs_push,
    compressed_csr_traversal,
    csr_traversal,
    drive,
    pagerank_push,
    parallel_row_traversal,
    single_stream_compress,
    ub_bins_compress,
)
from repro.graph import CompressedCsr, CsrGraph, community_graph
from repro.memory import AddressSpace, MemoryHierarchy
from tests.oracles import engine as reference

STALLED = "stalled"


def random_graph(rng, max_vertices=40, max_degree=8):
    n = rng.randrange(2, max_vertices)
    edges = rng.randrange(1, n * max_degree // 2 + 2)
    g = np.random.default_rng(rng.randrange(2 ** 31))
    return CsrGraph.from_edges(n, g.integers(0, n, edges),
                               g.integers(0, n, edges))


def random_config(rng, hostile=False):
    if hostile:
        return SpZipConfig(
            au_outstanding_lines=rng.choice([1, 2]),
            fu_bytes_per_cycle=1,
            scratchpad_bytes=rng.choice([192, 256, 384]))
    return SpZipConfig(
        au_outstanding_lines=rng.choice([1, 2, 4, 16]),
        fu_bytes_per_cycle=rng.choice([1, 2, 8]),
        scratchpad_bytes=rng.choice([512, 1024, 2048]))


def generated_program(seed):
    """Small generator over filter/expand/compress operator graphs.

    Builds a traversal chain — boundary filter -> row expansion — with a
    randomly inserted decompression stage, random fan-out to a shadow
    queue, and a random trailing indirect prefetch: the structural
    variety of the paper's Figs 2/3/5/6 from one knob.  Deterministic in
    ``seed`` so both legs can rebuild the identical program.
    """
    rng = random.Random(seed)
    compressed = rng.random() < 0.5
    fan_out = rng.random() < 0.5
    prefetch = fan_out and rng.random() < 0.5
    p = Program()
    p.queue(INPUT_QUEUE, elem_bytes=8)
    p.queue("offsetsQ", elem_bytes=8)
    p.queue(ROWS_QUEUE, elem_bytes=4)
    p.range_fetch("fetch_offsets", INPUT_QUEUE, ["offsetsQ"],
                  base="offsets", elem_bytes=8, emit_range_markers=False)
    targets = [ROWS_QUEUE]
    if fan_out:
        p.queue("shadowQ", elem_bytes=4)
        targets.append("shadowQ")
    if compressed:
        p.queue("crows", elem_bytes=1)
        p.range_fetch("fetch_crows", "offsetsQ", ["crows"],
                      base="payload", elem_bytes=1,
                      use_end_as_next_start=True)
        p.decompress("dec", "crows", targets, codec=DeltaCodec(),
                     elem_bytes=4)
    else:
        p.range_fetch("fetch_rows", "offsetsQ", targets,
                      base="rows", elem_bytes=4,
                      use_end_as_next_start=True)
    if prefetch:
        p.indirect("prefetch", "shadowQ", [], base="aux", elem_bytes=8)
    consume = [ROWS_QUEUE]
    if fan_out and not prefetch:
        consume.append("shadowQ")
    return p, compressed, tuple(consume)


def traversal_space(graph, compressed):
    cc = CompressedCsr(graph)
    space = AddressSpace()
    space.alloc_array("offsets",
                      cc.offsets if compressed else graph.offsets,
                      "adjacency")
    if compressed:
        space.alloc_array("payload",
                          np.frombuffer(cc.payload, dtype=np.uint8),
                          "adjacency")
    space.alloc_array("rows", graph.neighbors, "adjacency")
    space.alloc_array("aux",
                      np.zeros(graph.num_vertices + 1, dtype=np.uint64),
                      "destination_vertex")
    return space


def snapshot(engine):
    sched = engine.scheduler
    return {
        "cycle": engine.cycle,
        "fires_by_op": dict(sched.fires_by_op),
        "issued": sched.issued,
        "idle_cycles": sched.idle_cycles,
        "mem_reads": engine.mem_reads,
        "mem_bytes_read": engine.mem_bytes_read,
        "mem_writes": engine.mem_writes,
        "mem_bytes_written": engine.mem_bytes_written,
        "queues": {name: (q.total_pushed, q.high_water_bytes)
                   for name, q in engine.queues.items()},
    }


def run_both(make_engine, request):
    """Drive the same workload through the reference and the engine;
    compare or die.

    Returns ``(ref_pair, evt_pair)`` on success.  A stall in one leg
    must be a stall in the other (after which nothing else is
    comparable in a deadlocked run) — that yields ``None``.
    """
    observed = []
    for run_drive in (reference.drive, drive):
        engine = make_engine()
        try:
            result = run_drive(engine, request)
        except EngineStall:
            observed.append(STALLED)
            continue
        observed.append((result, snapshot(engine)))
    ref, evt = observed
    assert (ref == STALLED) == (evt == STALLED), \
        "one leg stalled, the other completed"
    if ref == STALLED:
        return None
    return ref, evt


def assert_identical(ref_pair, evt_pair):
    ref, ref_snap = ref_pair
    evt, evt_snap = evt_pair
    assert evt.cycles == ref.cycles
    assert evt.outputs == ref.outputs
    assert evt.fires_by_op == ref.fires_by_op
    assert evt.issued == ref.issued
    assert evt.idle_cycles == ref.idle_cycles
    assert evt.activity_factor == pytest.approx(ref.activity_factor)
    # The per-cycle reference executes every idle cycle; the engine may
    # account some of the same idle cycles as skipped.
    assert ref.skipped_idle_cycles == 0
    assert evt.skipped_idle_cycles <= evt.idle_cycles
    for key in ref_snap:
        assert evt_snap[key] == ref_snap[key], f"snapshot mismatch: {key}"


class TestGeneratedPrograms:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_chain_cycle_identical(self, seed):
        _, compressed, consume = generated_program(0xE5C0 + seed)
        rng = random.Random(seed)
        graph = random_graph(rng)
        config = random_config(rng, hostile=seed % 3 == 0)
        latency = rng.choice([1, 7, 20, 60, 113])
        walk = rng.randrange(1, graph.num_vertices + 1)
        request = DriveRequest(
            feeds={INPUT_QUEUE: [pack_range(0, walk + 1)]},
            consume=consume,
            dequeues_per_cycle=rng.choice([1, 2, 4]),
            max_cycles=2_000_000)

        def make():
            return Fetcher.from_program(
                generated_program(0xE5C0 + seed)[0],
                traversal_space(graph, compressed), config,
                mem_latency=latency)

        pair = run_both(make, request)
        if pair is not None:
            assert_identical(*pair)


class TestPaperPipelines:
    @pytest.mark.parametrize("seed", range(6))
    def test_csr_traversal(self, seed):
        rng = random.Random(100 + seed)
        graph = random_graph(rng)
        config = random_config(rng, hostile=seed % 2 == 0)
        latency = rng.choice([1, 20, 60])

        def make():
            return Fetcher.from_program(
                csr_traversal(row_elem_bytes=4),
                traversal_space(graph, compressed=False), config,
                mem_latency=latency)

        request = DriveRequest(
            feeds={INPUT_QUEUE: [pack_range(0, graph.num_vertices + 1)]},
            consume=(ROWS_QUEUE,),
            dequeues_per_cycle=rng.choice([1, 4]),
            max_cycles=2_000_000)
        pair = run_both(make, request)
        if pair is not None:
            assert_identical(*pair)

    @pytest.mark.parametrize("seed", range(6))
    def test_compressed_csr_traversal(self, seed):
        rng = random.Random(200 + seed)
        graph = random_graph(rng)
        config = random_config(rng, hostile=seed % 2 == 1)
        latency = rng.choice([1, 20, 113])

        def make():
            return Fetcher.from_program(
                compressed_csr_traversal(),
                traversal_space(graph, compressed=True), config,
                mem_latency=latency)

        request = DriveRequest(
            feeds={INPUT_QUEUE: [pack_range(0, graph.num_vertices + 1)]},
            consume=(ROWS_QUEUE,), max_cycles=2_000_000)
        pair = run_both(make, request)
        if pair is not None:
            assert_identical(*pair)

    @pytest.mark.parametrize("compressed", [False, True])
    def test_pagerank_push(self, compressed):
        rng = random.Random(17)
        graph = random_graph(rng, max_vertices=24)
        n = graph.num_vertices

        def make():
            space = AddressSpace()
            if compressed:
                cc = CompressedCsr(graph)
                space.alloc_array("offsets", cc.offsets, "adjacency")
                space.alloc_array("neighbors",
                                  np.frombuffer(cc.payload,
                                                dtype=np.uint8),
                                  "adjacency")
            else:
                space.alloc_array("offsets", graph.offsets, "adjacency")
                space.alloc_array("neighbors", graph.neighbors,
                                  "adjacency")
            space.alloc_array("contribs", np.zeros(n), "source_vertex")
            space.alloc_array("scores", np.zeros(n),
                              "destination_vertex")
            return Fetcher.from_program(
                pagerank_push(compressed=compressed), space,
                SpZipConfig(), mem_latency=20)

        request = DriveRequest(
            feeds={INPUT_QUEUE: [pack_range(0, n)],
                   OFFSETS_INPUT_QUEUE: [pack_range(0, n + 1)]},
            consume=(NEIGH_QUEUE, CONTRIBS_QUEUE), max_cycles=2_000_000)
        pair = run_both(make, request)
        if pair is not None:
            assert_identical(*pair)

    def test_bfs_push(self):
        rng = random.Random(23)
        graph = random_graph(rng, max_vertices=24)
        frontier = np.arange(min(5, graph.num_vertices),
                             dtype=np.uint32)

        def make():
            space = AddressSpace()
            space.alloc_array("frontier", frontier, "updates")
            space.alloc_array("offsets", graph.offsets, "adjacency")
            space.alloc_array("neighbors", graph.neighbors, "adjacency")
            space.alloc_array("dists",
                              np.zeros(graph.num_vertices,
                                       dtype=np.int64),
                              "destination_vertex")
            return Fetcher.from_program(bfs_push(), space, SpZipConfig(),
                                        mem_latency=40)

        request = DriveRequest(
            feeds={INPUT_QUEUE: [pack_range(0, len(frontier))]},
            consume=(NEIGH_QUEUE, ACTIVE_QUEUE), max_cycles=2_000_000)
        pair = run_both(make, request)
        if pair is not None:
            assert_identical(*pair)


class TestCompressorPipelines:
    @pytest.mark.parametrize("seed", range(4))
    def test_single_stream_compress(self, seed):
        rng = random.Random(300 + seed)
        g = np.random.default_rng(300 + seed)
        values = g.integers(0, 10_000, rng.randrange(8, 96)).tolist()
        chunk = rng.choice([4, 16, 64])
        config = random_config(rng, hostile=seed % 2 == 0)
        latency = rng.choice([1, 30])
        feed = [(int(v), False) for v in values] + [(0, True)]

        def make():
            space = AddressSpace()
            space.alloc("compressed_out", 1 << 16, "updates")
            return Compressor.from_program(
                single_stream_compress(chunk_elems=chunk), space, config,
                mem_latency=latency)

        request = DriveRequest(feeds={INPUT_QUEUE: list(feed)},
                               max_cycles=2_000_000)
        pair = run_both(make, request)
        if pair is not None:
            assert_identical(*pair)

    def test_ub_bins_with_drain(self):
        """The Fig 14 two-MQU pipeline, including Compressor.drain()."""
        g = np.random.default_rng(7)
        num_bins = 3
        feed = [(pack_tuple(int(g.integers(0, num_bins)), int(v)), False)
                for v in g.integers(0, 5_000, 40)]

        def run(compressor, run_drive):
            space = AddressSpace()
            space.alloc("mqu_staging", num_bins * 512, "updates")
            space.alloc("compressed_bins", num_bins * (1 << 16),
                        "updates")
            comp = compressor.from_program(
                ub_bins_compress(num_bins, chunk_elems=8), space,
                SpZipConfig(), mem_latency=11)
            run_drive(comp, DriveRequest(feeds={BIN_QUEUE: list(feed)},
                                         max_cycles=2_000_000))
            comp.drain()
            return snapshot(comp)

        assert run(Compressor, drive) == \
            run(reference.CycleCompressor, reference.drive)


class TestMulticore:
    @pytest.mark.parametrize("num_cores", [1, 2, 4])
    def test_makespan_identical(self, num_cores):
        graph = community_graph(192, 1500, seed_stream="equiv-mc")

        def run(traverse):
            hier = MemoryHierarchy(SystemConfig().scaled(4096))
            hier.space.alloc_array("offsets", graph.offsets,
                                   "adjacency")
            hier.space.alloc_array("rows", graph.neighbors, "adjacency")
            return traverse(
                hier, graph.num_vertices,
                lambda: csr_traversal(row_elem_bytes=4),
                chunk_vertices=32, num_cores=num_cores)

        ref = run(reference.parallel_row_traversal)
        evt = run(parallel_row_traversal)
        for key in ("makespan_cycles", "total_elements",
                    "per_core_elements", "per_core_markers", "steals",
                    "finish_cycles"):
            assert evt[key] == ref[key], f"multicore mismatch: {key}"


class TestEngineRun:
    """SpZipEngine.run() equivalence (the drive loop with no core).

    Nobody dequeues the output queue here, so runs where it overflows
    deadlock: the reference spins its 10k-cycle guard while the engine
    concludes immediately — both must raise :class:`EngineStall`.
    """

    @pytest.mark.parametrize("seed", range(4))
    def test_run_modes_identical(self, seed):
        rng = random.Random(400 + seed)
        graph = random_graph(rng, max_vertices=20)
        config = random_config(rng, hostile=seed % 2 == 0)
        latency = rng.choice([1, 20, 60])
        walk = max(1, graph.num_vertices // 3)

        def run(run_engine):
            f = Fetcher.from_program(
                compressed_csr_traversal(),
                traversal_space(graph, compressed=True), config,
                mem_latency=latency)
            f.enqueue(INPUT_QUEUE, pack_range(0, walk))
            try:
                run_engine(f, max_cycles=2_000_000)
            except EngineStall:
                return STALLED
            return snapshot(f)

        assert run(Fetcher.run) == run(reference.run)
