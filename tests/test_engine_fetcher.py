"""Functional tests for the SpZip fetcher on the paper's pipelines."""

import numpy as np
import pytest

from repro.compression import RleCodec
from repro.config import SpZipConfig, SystemConfig
from repro.dcl import Program, pack_range
from repro.engine import (
    DriveRequest,
    ACTIVE_QUEUE,
    CONTRIBS_QUEUE,
    INPUT_QUEUE,
    NEIGH_QUEUE,
    OFFSETS_INPUT_QUEUE,
    ROWS_QUEUE,
    EngineStall,
    Fetcher,
    bfs_push,
    compressed_csr_traversal,
    csr_traversal,
    drive,
    pagerank_push,
)
from repro.graph import CompressedCsr, CsrGraph, community_graph
from repro.memory import AddressSpace, MemoryHierarchy


def fig1_matrix():
    return CsrGraph(np.array([0, 2, 4, 5, 7]),
                    np.array([1, 2, 0, 2, 3, 1, 2], dtype=np.uint32))


def plain_space(graph):
    space = AddressSpace()
    space.alloc_array("offsets", graph.offsets, "adjacency")
    space.alloc_array("rows", graph.neighbors, "adjacency")
    return space


class TestCsrTraversal:
    """Fig 2: the DCL pipeline traversing the Fig 1 matrix."""

    def test_full_matrix_traversal(self):
        g = fig1_matrix()
        f = Fetcher(SpZipConfig(), plain_space(g))
        f.load_program(csr_traversal(row_elem_bytes=4))
        res = drive(f, DriveRequest(feeds={INPUT_QUEUE: [pack_range(0, 5)]}, consume=[ROWS_QUEUE]))
        assert res.chunks(ROWS_QUEUE) == [[1, 2], [0, 2], [3], [1, 2]]

    def test_partial_range(self):
        g = fig1_matrix()
        f = Fetcher(SpZipConfig(), plain_space(g))
        f.load_program(csr_traversal(row_elem_bytes=4))
        res = drive(f, DriveRequest(feeds={INPUT_QUEUE: [pack_range(1, 4)]}, consume=[ROWS_QUEUE]))
        assert res.chunks(ROWS_QUEUE) == [[0, 2], [3]]

    def test_empty_row_yields_bare_marker(self):
        g = CsrGraph(np.array([0, 2, 2, 3]),
                     np.array([1, 2, 0], dtype=np.uint32))
        f = Fetcher(SpZipConfig(), plain_space(g))
        f.load_program(csr_traversal(row_elem_bytes=4))
        res = drive(f, DriveRequest(feeds={INPUT_QUEUE: [pack_range(0, 4)]}, consume=[ROWS_QUEUE]))
        assert res.chunks(ROWS_QUEUE) == [[1, 2], [], [0]]

    def test_traversal_on_generated_graph(self):
        g = community_graph(300, 2400, seed_stream="fetch-test")
        f = Fetcher(SpZipConfig(), plain_space(g))
        f.load_program(csr_traversal(row_elem_bytes=4))
        res = drive(f, DriveRequest(
            feeds={INPUT_QUEUE: [pack_range(0, g.num_vertices + 1)]},
            consume=[ROWS_QUEUE], max_cycles=10 ** 7))
        chunks = res.chunks(ROWS_QUEUE)
        assert len(chunks) == g.num_vertices
        for v in range(g.num_vertices):
            assert chunks[v] == g.row(v).tolist()


class TestCompressedTraversal:
    """Fig 3: decompression operator inline with the traversal."""

    def test_roundtrip_through_engine(self):
        g = fig1_matrix()
        cc = CompressedCsr(g)
        space = AddressSpace()
        space.alloc_array("offsets", cc.offsets, "adjacency")
        space.alloc_array("payload",
                          np.frombuffer(cc.payload, dtype=np.uint8),
                          "adjacency")
        f = Fetcher(SpZipConfig(), space)
        f.load_program(compressed_csr_traversal())
        res = drive(f, DriveRequest(feeds={INPUT_QUEUE: [pack_range(0, 5)]}, consume=[ROWS_QUEUE]))
        assert res.chunks(ROWS_QUEUE) == [[1, 2], [0, 2], [3], [1, 2]]

    def test_alternate_codec(self):
        g = fig1_matrix()
        cc = CompressedCsr(g, codec=RleCodec())
        space = AddressSpace()
        space.alloc_array("offsets", cc.offsets, "adjacency")
        space.alloc_array("payload",
                          np.frombuffer(cc.payload, dtype=np.uint8),
                          "adjacency")
        f = Fetcher(SpZipConfig(), space)
        f.load_program(compressed_csr_traversal(codec=RleCodec()))
        res = drive(f, DriveRequest(feeds={INPUT_QUEUE: [pack_range(0, 5)]}, consume=[ROWS_QUEUE]))
        assert res.chunks(ROWS_QUEUE) == [[1, 2], [0, 2], [3], [1, 2]]


class TestPageRankPipeline:
    """Fig 5 / Fig 11: adjacency + source data + destination prefetch."""

    def make(self, compressed):
        g = fig1_matrix()
        contribs = np.array([0.1, 0.2, 0.3, 0.4])
        hier = MemoryHierarchy(SystemConfig().scaled(4096))
        space = hier.space
        if compressed:
            cc = CompressedCsr(g)
            space.alloc_array("offsets", cc.offsets, "adjacency")
            space.alloc_array("neighbors",
                              np.frombuffer(cc.payload, dtype=np.uint8),
                              "adjacency")
        else:
            space.alloc_array("offsets", g.offsets, "adjacency")
            space.alloc_array("neighbors", g.neighbors, "adjacency")
        space.alloc_array("contribs", contribs, "source_vertex")
        space.alloc_array("scores", np.zeros(4), "destination_vertex")
        fetcher = Fetcher.for_core(hier, core=0)
        fetcher.load_program(pagerank_push(compressed=compressed))
        return fetcher, hier, contribs

    @pytest.mark.parametrize("compressed", [False, True])
    def test_neighbors_and_contribs(self, compressed):
        fetcher, _hier, contribs = self.make(compressed)
        res = drive(fetcher, DriveRequest(
            feeds={INPUT_QUEUE: [pack_range(0, 4)],
                   OFFSETS_INPUT_QUEUE: [pack_range(0, 5)]},
            consume=[NEIGH_QUEUE, CONTRIBS_QUEUE]))
        assert res.chunks(NEIGH_QUEUE) == [[1, 2], [0, 2], [3], [1, 2]]
        got = np.frombuffer(np.array(res.values(CONTRIBS_QUEUE),
                                     dtype=np.uint64).tobytes(),
                            dtype=np.float64)
        assert np.array_equal(got, contribs)

    def test_prefetch_touches_destination_data(self):
        fetcher, hier, _ = self.make(compressed=False)
        drive(fetcher, DriveRequest(
            feeds={INPUT_QUEUE: [pack_range(0, 4)],
                   OFFSETS_INPUT_QUEUE: [pack_range(0, 5)]},
            consume=[NEIGH_QUEUE, CONTRIBS_QUEUE]))
        assert hier.traffic_by_class()["destination_vertex"] > 0

    def test_fetcher_issues_to_l2_not_l1(self):
        fetcher, hier, _ = self.make(compressed=False)
        drive(fetcher, DriveRequest(
            feeds={INPUT_QUEUE: [pack_range(0, 4)],
                   OFFSETS_INPUT_QUEUE: [pack_range(0, 5)]},
            consume=[NEIGH_QUEUE, CONTRIBS_QUEUE]))
        assert hier.l1[0].stats.hits + hier.l1[0].stats.misses == 0
        assert hier.l2[0].stats.hits + hier.l2[0].stats.misses > 0


class TestBfsPipeline:
    """Fig 6: the frontier adds an extra indirection level."""

    def test_frontier_driven_traversal(self):
        g = fig1_matrix()
        space = AddressSpace()
        space.alloc_array("frontier", np.array([0, 3], dtype=np.uint32),
                          "updates")
        space.alloc_array("offsets", g.offsets, "adjacency")
        space.alloc_array("neighbors", g.neighbors, "adjacency")
        space.alloc_array("dists", np.zeros(4, dtype=np.int64),
                          "destination_vertex")
        f = Fetcher(SpZipConfig(), space)
        f.load_program(bfs_push())
        res = drive(f, DriveRequest(feeds={INPUT_QUEUE: [pack_range(0, 2)]},
                                    consume=[NEIGH_QUEUE, ACTIVE_QUEUE]))
        assert res.values(ACTIVE_QUEUE) == [0, 3]
        assert res.chunks(NEIGH_QUEUE) == [[1, 2], [1, 2]]


class TestEngineMechanics:
    def test_program_kind_restriction(self):
        from repro.compression import DeltaCodec
        p = Program()
        p.queue("in", 4)
        p.queue("out", 1)
        p.compress("c", "in", ["out"], codec=DeltaCodec())
        f = Fetcher(SpZipConfig(), AddressSpace())
        with pytest.raises(Exception):
            f.load_program(p)

    def test_run_without_program_raises(self):
        f = Fetcher(SpZipConfig(), AddressSpace())
        with pytest.raises(RuntimeError):
            f.tick()

    def test_stall_guard_fires_when_output_never_drained(self):
        g = fig1_matrix()
        f = Fetcher(SpZipConfig(scratchpad_bytes=128), plain_space(g))
        f.load_program(csr_traversal(row_elem_bytes=4))
        f.enqueue(INPUT_QUEUE, pack_range(0, 5))
        with pytest.raises(EngineStall):
            f.run(max_cycles=10 ** 6)  # nobody dequeues rows

    def test_outstanding_requests_bounded(self):
        g = community_graph(200, 1600, seed_stream="au-test")
        space = plain_space(g)
        config = SpZipConfig(au_outstanding_lines=2)
        f = Fetcher(config, space, mem_latency=50)
        f.load_program(csr_traversal(row_elem_bytes=4))
        f.enqueue(INPUT_QUEUE, pack_range(0, 50))
        max_inflight = 0
        for _ in range(2000):
            f.tick()
            max_inflight = max(max_inflight, len(f._inflight))
            while f.dequeue(ROWS_QUEUE):
                pass
        assert max_inflight <= 2

    def test_deeper_queues_do_not_slow_traversal(self):
        """More scratchpad -> at least as much decoupling (Fig 21 trend)."""
        g = community_graph(400, 3200, seed_stream="decouple-test")

        def run(scratch):
            f = Fetcher(SpZipConfig(scratchpad_bytes=scratch),
                        plain_space(g), mem_latency=60)
            f.load_program(csr_traversal(row_elem_bytes=4))
            res = drive(f, DriveRequest(
                feeds={INPUT_QUEUE:
                       [pack_range(0, g.num_vertices + 1)]},
                consume=[ROWS_QUEUE], dequeues_per_cycle=4,
                max_cycles=10 ** 7))
            return res.cycles

        assert run(2048) <= run(256) * 1.05

    def test_outstanding_requests_hide_memory_latency(self):
        """Decoupling: with N outstanding requests, N misses overlap, so
        the traversal runs close to N-times faster than serialized."""
        g = community_graph(400, 3200, seed_stream="latency-test")

        def run(outstanding):
            config = SpZipConfig(au_outstanding_lines=outstanding)
            f = Fetcher(config, plain_space(g), mem_latency=60)
            f.load_program(csr_traversal(row_elem_bytes=4))
            res = drive(f, DriveRequest(
                feeds={INPUT_QUEUE:
                       [pack_range(0, g.num_vertices + 1)]},
                consume=[ROWS_QUEUE], dequeues_per_cycle=8,
                max_cycles=10 ** 7))
            return res.cycles

        assert run(8) < run(1) / 3
