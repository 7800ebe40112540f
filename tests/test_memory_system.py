"""Tests for DRAM, NoC, and the memory hierarchy."""

import pytest

from repro.config import MemoryConfig, NocConfig, SystemConfig
from repro.memory import (
    DramModel,
    MemoryHierarchy,
    MeshNoc,
    TrafficCounter,
)


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

    def test_merge(self):
        a, b = TrafficCounter(), TrafficCounter()
        a.add("updates", 10, write=False)
        b.add("updates", 5, write=True)
        a.merge(b)
        assert a.total("updates") == 15


class TestDramModel:
    def test_peak_bandwidth_matches_table2(self):
        dram = DramModel(MemoryConfig(), freq_ghz=3.5)
        assert dram.peak_bytes_per_cycle == pytest.approx(51.2 / 3.5)

    def test_sequential_bulk_mostly_row_hits(self):
        dram = DramModel(MemoryConfig())
        dram.add_bulk(1 << 20, "updates", sequential=True)
        assert dram.row_hit_rate > 0.95

    def test_scattered_bulk_all_row_misses(self):
        dram = DramModel(MemoryConfig())
        dram.add_bulk(64 * 100, "destination_vertex", sequential=False)
        assert dram.row_hit_rate == 0.0

    def test_effective_bandwidth_derated_by_row_misses(self):
        seq = DramModel(MemoryConfig())
        seq.add_bulk(1 << 20, "updates", sequential=True)
        scat = DramModel(MemoryConfig())
        scat.add_bulk(1 << 20, "updates", sequential=False)
        assert seq.effective_bytes_per_cycle > scat.effective_bytes_per_cycle

    def test_service_cycles_proportional_to_traffic(self):
        dram = DramModel(MemoryConfig())
        dram.add_bulk(1 << 20, "updates", sequential=True)
        one = dram.service_cycles()
        dram.add_bulk(1 << 20, "updates", sequential=True)
        assert dram.service_cycles() == pytest.approx(2 * one, rel=0.01)

    def test_access_tracks_open_rows(self):
        dram = DramModel(MemoryConfig(controllers=1))
        dram.access(0, 64, "other")
        dram.access(64, 64, "other")   # same 8 KB row
        assert dram.row_hits == 1
        dram.access(1 << 20, 64, "other")
        assert dram.row_misses == 2

    def test_reset(self):
        dram = DramModel(MemoryConfig())
        dram.add_bulk(128, "updates")
        dram.reset()
        assert dram.traffic.total() == 0


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

    def test_flit_count(self):
        noc = MeshNoc(NocConfig())
        assert noc.flits_for(0) == 1
        assert noc.flits_for(16) == 1
        assert noc.flits_for(17) == 2
        assert noc.flits_for(64) == 4

    def test_message_latency_grows_with_distance(self):
        noc = MeshNoc(NocConfig())
        assert noc.message_latency(0, 15, 64) > noc.message_latency(0, 1, 64)

    def test_send_accounts_stats(self):
        noc = MeshNoc(NocConfig())
        noc.send(0, 5, 64)
        assert noc.stats.messages == 1
        assert noc.stats.flits == 4

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
        assert hier.l1[0].stats.accesses == 0
        assert hier.l2[0].stats.accesses == 1

    def test_compressor_enters_at_llc(self):
        hier = self.make()
        region = hier.space.alloc("bins", 1024, "updates")
        hier.access(region.base, 8, start_level="llc", write=True)
        assert hier.l2[0].stats.accesses == 0
        assert hier.llc.stats.accesses == 1

    def test_traffic_classified_by_region(self):
        hier = self.make()
        region = hier.space.alloc("adj", 4096, "adjacency")
        for i in range(0, 4096, 64):
            hier.access(region.base + i, 8)
        assert hier.traffic_by_class()["adjacency"] == 4096

    def test_bulk_stream_accounting(self):
        hier = self.make()
        hier.stream_read(1 << 16, "updates")
        hier.stream_write(1 << 16, "updates")
        assert hier.traffic_by_class()["updates"] == 2 << 16

    def test_finalize_writebacks(self):
        hier = self.make()
        region = hier.space.alloc("v", 1 << 20, "destination_vertex")
        # Write enough lines to overflow the tiny scaled LLC.
        for i in range(0, 1 << 20, 64):
            hier.access(region.base + i, 8, write=True)
        added = hier.finalize_writebacks("destination_vertex")
        assert added > 0
        assert hier.traffic_by_class()["destination_vertex"] > added
