"""Tests for the system configuration (paper Table II)."""

import pytest

from repro.config import SystemConfig, default_system


class TestTable2Defaults:
    def test_core_count_and_frequency(self):
        system = default_system()
        assert system.num_cores == 16
        assert system.freq_ghz == 3.5

    def test_cache_sizes(self):
        system = default_system()
        assert system.l1d.size_bytes == 32 * 1024
        assert system.l2.size_bytes == 256 * 1024
        assert system.llc.size_bytes == 32 * 1024 * 1024

    def test_llc_uses_drrip(self):
        assert default_system().llc.replacement == "drrip"

    def test_memory_bandwidth(self):
        system = default_system()
        assert system.memory.total_gb_per_sec == pytest.approx(51.2)
        assert system.bytes_per_cycle == pytest.approx(51.2 / 3.5)

    def test_mesh_is_4x4(self):
        noc = default_system().noc
        assert noc.mesh_width * noc.mesh_height == 16

    def test_spzip_defaults(self):
        spzip = default_system().spzip
        assert spzip.scratchpad_bytes == 2048
        assert spzip.max_contexts == 16
        assert spzip.au_outstanding_lines == 8


class TestScaling:
    def test_scaled_preserves_geometry(self):
        system = SystemConfig().scaled(1024)
        assert system.llc.ways == 16
        assert system.llc.line_bytes == 64
        assert system.llc.size_bytes < 32 * 1024 * 1024
        assert system.scale == 1024

    def test_scaled_respects_floors(self):
        system = SystemConfig().scaled(10 ** 9)
        assert system.l1d.size_bytes >= system.l1d.ways * 64
        assert system.llc.num_lines >= system.llc.ways

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig().scaled(0)

    def test_scaled_keeps_timing_constants(self):
        system = SystemConfig().scaled(1024)
        assert system.freq_ghz == 3.5
        assert system.memory.total_gb_per_sec == pytest.approx(51.2)
