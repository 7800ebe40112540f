"""Ablations of the design choices DESIGN.md calls out.

Not paper figures — these pin the model's own load-bearing decisions:

* the 32-element compression chunk (paper Sec III-C's choice) against
  smaller/larger windows;
* the codec menu (delta alone vs the paper's best-of-delta-and-BPC vs
  the extended menu);
* virtual id expansion (DESIGN.md's scaled-id-entropy substitution) —
  without it, randomized graphs spuriously compress;
* the access unit's 8 outstanding requests (Table II / SpZipConfig)
  against shallower and deeper trackers, on the functional engine.
"""

import numpy as np
from conftest import run_once

from repro.graph import load_preprocessed
from repro.runtime import chunked_ids_values_compressed, \
    rows_compressed_bytes
from repro.sim.runner import identity_workload


def _update_stream(runner, dataset="ukl"):
    workload = identity_workload("pr", dataset, "none", runner.scale)
    graph = workload.graph
    dsts = graph.neighbors.astype(np.uint32)
    values = np.repeat(workload.iterations[0].src_values,
                       graph.out_degrees())
    return dsts, values


def test_ablation_chunk_size(benchmark, runner, report):
    """The compression-ratio knee is flat around the paper's 32-element
    chunk: 8-32 land within ~10% of each other, and going wider only
    loses (coarser sorting windows scatter the float payloads)."""
    from repro.harness import ExperimentResult
    dsts, values = _update_stream(runner)
    raw = dsts.size * 8

    def measure():
        rows = []
        for chunk in (8, 16, 32, 64, 128):
            size = chunked_ids_values_compressed(dsts, values,
                                                 runner.scale,
                                                 sort=True, chunk=chunk)
            rows.append({"chunk_elems": chunk,
                         "ratio": raw / max(1, size)})
        return ExperimentResult(
            "ablation-chunk", "Update-bin compression vs chunk size "
                              "(PR updates on ukl)",
            ["chunk_elems", "ratio"], rows)

    result = run_once(benchmark, measure)
    report(result)
    ratios = {row["chunk_elems"]: row["ratio"] for row in result.rows}
    best = max(ratios.values())
    assert ratios[32] > 0.85 * best               # 32 sits on the knee
    assert ratios[128] <= ratios[32] * 1.05       # wider buys nothing


def test_ablation_codec_menu(benchmark, runner, report):
    """The paper's best-of-delta-and-BPC choice vs alternatives."""
    from repro.compression import make_codec
    from repro.harness import ExperimentResult
    dsts, _values = _update_stream(runner)
    from repro.graph.idspace import expand_ids
    ids = np.sort(expand_ids(dsts[:65536], runner.scale)
                  .astype(np.uint32))
    raw = ids.size * 4

    def measure():
        rows = []
        for name in ("raw", "delta", "bpc", "nibble", "for", "rle"):
            codec = make_codec(name)
            rows.append({"codec": name,
                         "ratio": raw / max(1, codec.encoded_size(ids))})
        return ExperimentResult(
            "ablation-codec", "Codec menu on sorted virtual neighbour "
                              "ids (ukl)",
            ["codec", "ratio"], rows)

    result = run_once(benchmark, measure)
    report(result)
    ratios = {row["codec"]: row["ratio"] for row in result.rows}
    # Everything in the menu beats raw on this stream; the byte-code
    # delta gets a solid 3x+.
    assert ratios["delta"] > 3.0
    # Finer-granularity codes win on tiny-gap sorted streams -- the
    # reason Ligra+ carries nibble codes alongside byte codes.
    assert ratios["nibble"] >= ratios["delta"]
    general_best = max(v for k, v in ratios.items()
                       if k not in ("raw", "rle"))
    assert ratios["delta"] > 0.5 * general_best


def test_ablation_id_expansion(benchmark, runner, report):
    """DESIGN.md's virtual id expansion: without it, *randomized* model
    graphs spuriously compress (small id space), breaking Fig 15b's
    'compression barely helps Push' anchor."""
    from repro.harness import ExperimentResult
    graph = load_preprocessed("ukl", "none", runner.scale)
    every = np.arange(graph.num_vertices)
    raw = graph.num_edges * 4

    def measure():
        rows = []
        for scale, label in ((1, "model ids (no expansion)"),
                             (runner.scale, "virtual paper-scale ids")):
            size = rows_compressed_bytes(graph, every, scale)
            rows.append({"ids": label, "ratio": raw / max(1, size)})
        return ExperimentResult(
            "ablation-idspace", "Randomized-graph adjacency compression "
                                "with/without id expansion",
            ["ids", "ratio"], rows)

    result = run_once(benchmark, measure)
    report(result)
    by_label = {row["ids"]: row["ratio"] for row in result.rows}
    assert by_label["model ids (no expansion)"] > 1.5  # the artifact
    assert by_label["virtual paper-scale ids"] < 1.4   # the fix


def test_ablation_outstanding_requests(benchmark, runner, report):
    """8 outstanding AU requests (the design point) captures most of
    the achievable latency hiding on the functional engine."""
    from repro.config import SpZipConfig
    from repro.dcl import pack_range
    from repro.engine import (
        DriveRequest,
        INPUT_QUEUE,
        ROWS_QUEUE,
        Fetcher,
        csr_traversal,
        drive,
    )
    from repro.harness import ExperimentResult
    from repro.memory import AddressSpace
    graph = load_preprocessed("ukl", "none", 16384)

    def run(outstanding):
        space = AddressSpace()
        space.alloc_array("offsets", graph.offsets, "adjacency")
        space.alloc_array("rows", graph.neighbors, "adjacency")
        fetcher = Fetcher(SpZipConfig(au_outstanding_lines=outstanding),
                          space, mem_latency=60)
        fetcher.load_program(csr_traversal(row_elem_bytes=4))
        # The core dequeues one element per cycle, so useful run-ahead
        # is bounded at ~latency/elements-per-request ~= 8 requests --
        # exactly the design point.
        result = drive(fetcher, DriveRequest(feeds={INPUT_QUEUE: [pack_range(0, 800)]},
                                             consume=[ROWS_QUEUE],
                                             dequeues_per_cycle=1,
                                             max_cycles=10 ** 8))
        return result.cycles

    def measure():
        rows = []
        base = None
        for outstanding in (1, 2, 4, 8, 16):
            cycles = run(outstanding)
            if base is None:
                base = cycles
            rows.append({"outstanding": outstanding,
                         "speedup_vs_1": base / cycles})
        return ExperimentResult(
            "ablation-outstanding", "Traversal speedup vs AU "
                                    "outstanding-request depth",
            ["outstanding", "speedup_vs_1"], rows)

    result = run_once(benchmark, measure)
    report(result)
    speed = {row["outstanding"]: row["speedup_vs_1"]
             for row in result.rows}
    assert speed[8] > speed[2]            # depth buys overlap
    assert speed[16] < speed[8] * 1.35    # 8 is near the knee
