"""Tests for traffic accounting, the NoC, and the memory hierarchy."""

import pytest

from repro.config import NocConfig, SystemConfig
from repro.memory import MemoryHierarchy, MeshNoc, TrafficCounter


class TestTrafficCounter:
    def test_add_and_total(self):
        counter = TrafficCounter()
        counter.add("updates", 100, write=True)
        counter.add("updates", 50, write=False)
        counter.add("adjacency", 64, write=False)
        assert counter.total("updates") == 150
        assert counter.total() == 214

    def test_by_class_covers_all_classes(self):
        counter = TrafficCounter()
        classes = counter.by_class()
        assert set(classes) >= {"adjacency", "source_vertex",
                                "destination_vertex", "updates"}


class TestMeshNoc:
    def test_hops_xy(self):
        noc = MeshNoc(NocConfig())
        assert noc.hops(0, 0) == 0
        assert noc.hops(0, 3) == 3      # same row
        assert noc.hops(0, 15) == 6     # corner to corner on 4x4

    def test_tile_bounds(self):
        noc = MeshNoc(NocConfig())
        with pytest.raises(ValueError):
            noc.hops(0, 16)

    def test_average_hops_reasonable(self):
        noc = MeshNoc(NocConfig())
        # Mean Manhattan distance on a 4x4 mesh is 2.5.
        assert noc.average_hops() == pytest.approx(2.5)


class TestMemoryHierarchy:
    def make(self):
        return MemoryHierarchy(SystemConfig().scaled(4096))

    def test_repeated_access_hits_l1(self):
        hier = self.make()
        region = hier.space.alloc("v", 1024, "destination_vertex")
        first = hier.access(region.base, 8)
        second = hier.access(region.base, 8)
        assert second < first
        assert hier.offchip_bytes() == 64

    def test_fetcher_enters_at_l2(self):
        hier = self.make()
        region = hier.space.alloc("adj", 1024, "adjacency")
        hier.access(region.base, 8, start_level="l2")
        assert hier.l1[0].stats.hits + hier.l1[0].stats.misses == 0
        assert hier.l2[0].stats.hits + hier.l2[0].stats.misses == 1

    def test_compressor_enters_at_llc(self):
        hier = self.make()
        region = hier.space.alloc("bins", 1024, "updates")
        hier.access(region.base, 8, start_level="llc", write=True)
        assert hier.l2[0].stats.hits + hier.l2[0].stats.misses == 0
        assert hier.llc.stats.hits + hier.llc.stats.misses == 1

    def test_traffic_classified_by_region(self):
        hier = self.make()
        region = hier.space.alloc("adj", 4096, "adjacency")
        for i in range(0, 4096, 64):
            hier.access(region.base + i, 8)
        assert hier.traffic_by_class()["adjacency"] == 4096

    def test_finalize_writebacks(self):
        hier = self.make()
        region = hier.space.alloc("v", 1 << 20, "destination_vertex")
        # Write enough lines to overflow the tiny scaled LLC.
        for i in range(0, 1 << 20, 64):
            hier.access(region.base + i, 8, write=True)
        added = hier.finalize_writebacks("destination_vertex")
        assert added > 0
        assert hier.traffic_by_class()["destination_vertex"] > added
