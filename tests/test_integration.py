"""Cross-layer integration tests.

These tie the fidelity levels together: the functional engines, the
memory hierarchy, the compression codecs, and the analytic traffic model
must agree where their domains overlap.
"""

import numpy as np
import pytest

from repro.compression import DeltaCodec
from repro.config import SpZipConfig, SystemConfig
from repro.dcl import pack_range
from repro.engine import (
    DriveRequest,
    INPUT_QUEUE,
    ROWS_QUEUE,
    Fetcher,
    compressed_csr_traversal,
    csr_traversal,
    drive,
)
from repro.graph import CompressedCsr, community_graph
from repro.memory import MemoryHierarchy
from repro.runtime import rows_compressed_bytes


@pytest.fixture(scope="module")
def graph():
    return community_graph(300, 2400, seed_stream="integration")


class TestEngineVsAnalyticModel:
    def test_compressed_traversal_traffic_matches_payload(self, graph):
        """The fetcher's off-chip adjacency traffic for a cold compressed
        traversal must be ~the compressed payload size (line-rounded)."""
        compressed = CompressedCsr(graph)
        hier = MemoryHierarchy(SystemConfig().scaled(65536))
        hier.space.alloc_array("offsets", compressed.offsets,
                               "adjacency")
        hier.space.alloc_array(
            "payload", np.frombuffer(compressed.payload, dtype=np.uint8),
            "adjacency")
        fetcher = Fetcher.for_core(hier, core=0)
        fetcher.load_program(compressed_csr_traversal())
        drive(fetcher, DriveRequest(
            feeds={INPUT_QUEUE: [pack_range(0, graph.num_vertices + 1)]},
            consume=[ROWS_QUEUE], dequeues_per_cycle=8,
            max_cycles=10 ** 8))
        traffic = hier.traffic_by_class()["adjacency"]
        expected = compressed.payload_bytes + compressed.offsets.size * 8
        # Line granularity and cold-miss rounding inflate both ways.
        assert traffic == pytest.approx(expected, rel=0.35)

    def test_engine_decompresses_what_model_sized(self, graph):
        """The analytic per-row compressed size (id_scale=1) must equal
        the bytes the engine actually walks."""
        compressed = CompressedCsr(graph, codec=DeltaCodec())
        analytic = rows_compressed_bytes(
            graph, np.arange(graph.num_vertices), id_scale=1)
        # rows_compressed_bytes applies a raw fallback per row; with the
        # real format (no fallback) payload can only be >= that bound.
        assert compressed.payload_bytes >= analytic * 0.95

    def test_plain_vs_compressed_traversal_same_output(self, graph):
        def run(program, regions):
            from repro.memory import AddressSpace
            space = AddressSpace()
            for name, (data, cls) in regions.items():
                space.alloc_array(name, data, cls)
            fetcher = Fetcher(SpZipConfig(), space)
            fetcher.load_program(program)
            result = drive(fetcher, DriveRequest(
                feeds={INPUT_QUEUE:
                       [pack_range(0, graph.num_vertices + 1)]},
                consume=[ROWS_QUEUE], dequeues_per_cycle=8,
                max_cycles=10 ** 8))
            return result.chunks(ROWS_QUEUE)

        plain = run(csr_traversal(row_elem_bytes=4),
                    {"offsets": (graph.offsets, "adjacency"),
                     "rows": (graph.neighbors, "adjacency")})
        compressed = CompressedCsr(graph)
        comp = run(compressed_csr_traversal(),
                   {"offsets": (compressed.offsets, "adjacency"),
                    "payload": (np.frombuffer(compressed.payload,
                                              dtype=np.uint8),
                                "adjacency")})
        assert plain == comp

    def test_scheduler_activity_factor_reasonable(self, graph):
        """Sec III-B sizes the fetcher for ~33% operator activity; the
        functional model should be in that ballpark, not pegged at 1."""
        compressed = CompressedCsr(graph)
        from repro.memory import AddressSpace
        space = AddressSpace()
        space.alloc_array("offsets", compressed.offsets, "adjacency")
        space.alloc_array("payload",
                          np.frombuffer(compressed.payload,
                                        dtype=np.uint8), "adjacency")
        fetcher = Fetcher(SpZipConfig(), space, mem_latency=40)
        fetcher.load_program(compressed_csr_traversal())
        drive(fetcher, DriveRequest(feeds={INPUT_QUEUE: [pack_range(0, 200)]},
                                    consume=[ROWS_QUEUE],
                                    dequeues_per_cycle=2,
                                    max_cycles=10 ** 7))
        activity = fetcher.scheduler.activity_factor()
        assert 0.05 < activity < 0.95


class TestEndToEndRunnerDeterminism:
    def test_same_runner_inputs_same_results(self, monkeypatch):
        """A runner's cell equals an independently built pricer's."""
        import repro.jobs.executor as executor
        from repro.jobs import JobRunner
        from repro.stages import StagePricer
        # A cold per-process pricer memo: the runner prices the cell.
        monkeypatch.setattr(executor, "_PRICERS", {})
        a = JobRunner(scale=65536).run("pr", "phi+spzip", "ukl", "dfs")
        b = StagePricer(scale=65536).price("pr", "phi+spzip", "ukl",
                                           "dfs")
        assert a.cycles == b.cycles
        assert a.traffic == b.traffic
