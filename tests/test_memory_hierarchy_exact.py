"""Hierarchy tests on exact set-associative levels.

The hierarchy's walk (fill path, private levels, the engines' drive) is
the model's; its levels here are the exact set-associative reference
caches of :mod:`tests.oracles.memory` instead of the model's
fully-associative LRU.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig
from repro.dcl import pack_range
from repro.engine import DriveRequest, Fetcher, INPUT_QUEUE, ROWS_QUEUE, \
    csr_traversal, drive
from repro.graph import CsrGraph
from repro.graph.idspace import expand_ids
from tests.oracles.memory import SetAssocCache, make_hierarchy


class TestExactHierarchy:
    def make(self):
        return make_hierarchy(SystemConfig().scaled(65536), fast=False)

    def test_uses_set_assoc_caches(self):
        hier = self.make()
        assert isinstance(hier.llc, SetAssocCache)
        assert isinstance(hier.l1[0], SetAssocCache)

    def test_inclusive_fill_path(self):
        hier = self.make()
        region = hier.space.alloc("v", 4096, "destination_vertex")
        hier.access(region.base, 8)
        # After a miss, the line is resident at every level touched.
        line = region.base // 64
        assert hier.l1[0].contains(line)
        assert hier.l2[0].contains(line)
        assert hier.llc.contains(line)

    def test_l2_hit_after_l1_eviction(self):
        hier = self.make()
        region = hier.space.alloc("v", 1 << 20, "destination_vertex")
        hier.access(region.base, 8)
        # Blow the (tiny, scaled) L1 with a conflict scan.
        for i in range(64):
            hier.access(region.base + i * hier.config.l1d.size_bytes, 8)
        before = hier.traffic.total()
        hier.access(region.base, 8)
        assert hier.traffic.total() >= before  # may hit L2/LLC

    def test_fetcher_runs_on_exact_hierarchy(self):
        hier = self.make()
        g = CsrGraph(np.array([0, 2, 4, 5, 7]),
                     np.array([1, 2, 0, 2, 3, 1, 2], dtype=np.uint32))
        hier.space.alloc_array("offsets", g.offsets, "adjacency")
        hier.space.alloc_array("rows", g.neighbors, "adjacency")
        fetcher = Fetcher.for_core(hier, core=0)
        fetcher.load_program(csr_traversal(row_elem_bytes=4))
        result = drive(fetcher, DriveRequest(feeds={INPUT_QUEUE: [pack_range(0, 5)]},
                                             consume=[ROWS_QUEUE]))
        assert result.chunks(ROWS_QUEUE) == [[1, 2], [0, 2], [3],
                                             [1, 2]]
        assert hier.offchip_bytes() > 0

    def test_private_l2s_are_independent(self):
        hier = self.make()
        region = hier.space.alloc("v", 4096, "other")
        hier.access(region.base, 8, core=0)
        line = region.base // 64
        assert hier.l2[0].contains(line)
        assert not hier.l2[1].contains(line)


class TestIdspaceProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 10 ** 6), min_size=2, max_size=100,
                    unique=True))
    def test_expansion_strictly_monotonic(self, ids):
        ids = np.array(sorted(ids), dtype=np.uint64)
        virtual = expand_ids(ids, 4096)
        assert (np.diff(virtual.astype(np.int64)) > 0).all()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(1, 255))
    def test_local_gaps_bounded_by_stride(self, base, gap):
        # Ids in the same 256-block stay within stride * gap + noise.
        start = base - base % 256
        if start + gap > start + 255:
            gap = 255
        a = expand_ids(np.array([start]), 4096)[0]
        b = expand_ids(np.array([start + gap]), 4096)[0]
        assert int(b) - int(a) <= 4 * gap + 4

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 20))
    def test_identity_below_scale_two(self, n):
        ids = np.arange(n, dtype=np.uint32)
        assert np.array_equal(expand_ids(ids, 1),
                              ids.astype(np.uint64))
