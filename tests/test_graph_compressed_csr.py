"""Tests for the entropy-compressed CSR format (paper Fig 3)."""

import numpy as np
import pytest

from repro.compression import BpcCodec, RawCodec
from repro.graph import CompressedCsr, CsrGraph, community_graph


def fig4_graph():
    return CsrGraph(np.array([0, 2, 4, 5, 7]),
                    np.array([1, 2, 0, 2, 3, 1, 2], dtype=np.uint32))


class TestPerRowCompression:
    def test_rows_roundtrip(self):
        g = fig4_graph()
        cc = CompressedCsr(g)
        for v in range(g.num_vertices):
            assert np.array_equal(cc.row(v), g.row(v))

    def test_row_bounds(self):
        cc = CompressedCsr(fig4_graph())
        with pytest.raises(IndexError):
            cc.row(4)

    def test_to_csr_roundtrip(self):
        g = community_graph(300, 2000, seed_stream="cc-test")
        cc = CompressedCsr(g)
        back = cc.to_csr()
        assert np.array_equal(back.offsets, g.offsets)
        assert np.array_equal(back.neighbors, g.neighbors)

    def test_compression_ratio_positive_on_local_graph(self):
        g = community_graph(1000, 10000, seed_stream="cc-ratio")
        cc = CompressedCsr(g)
        assert cc.compression_ratio() > 1.5

    def test_total_bytes_includes_offsets(self):
        g = fig4_graph()
        cc = CompressedCsr(g)
        assert cc.total_bytes() == cc.payload_bytes + 5 * 8


class TestChunkedRows:
    def test_multi_row_chunks_roundtrip(self):
        g = community_graph(257, 2000, seed_stream="cc-chunk")
        cc = CompressedCsr(g, rows_per_chunk=16)
        for v in [0, 15, 16, 100, 256]:
            assert np.array_equal(cc.row(v), g.row(v))

    def test_chunking_reduces_offsets_array(self):
        g = community_graph(256, 2000, seed_stream="cc-chunk2")
        per_row = CompressedCsr(g, rows_per_chunk=1)
        chunked = CompressedCsr(g, rows_per_chunk=32)
        assert chunked.offsets.size < per_row.offsets.size

    def test_chunked_compression_no_worse(self):
        """Sec II-B: compressing several rows at once increases efficiency."""
        g = community_graph(512, 4000, seed_stream="cc-chunk3")
        per_row = CompressedCsr(g, rows_per_chunk=1)
        chunked = CompressedCsr(g, rows_per_chunk=64)
        assert chunked.total_bytes() <= per_row.total_bytes()

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(ValueError):
            CompressedCsr(fig4_graph(), rows_per_chunk=0)


class TestAlternativeCodecs:
    def test_bpc_backed_csr(self):
        g = community_graph(300, 3000, seed_stream="cc-bpc")
        cc = CompressedCsr(g, codec=BpcCodec(), rows_per_chunk=8)
        for v in [0, 77, 299]:
            assert np.array_equal(cc.row(v), g.row(v))

    def test_raw_codec_ratio_below_one(self):
        g = fig4_graph()
        cc = CompressedCsr(g, codec=RawCodec())
        assert cc.compression_ratio() == pytest.approx(1.0)

    def test_empty_graph(self):
        g = CsrGraph(np.array([0]), np.empty(0, dtype=np.uint32))
        cc = CompressedCsr(g)
        assert cc.payload_bytes == 0
        assert cc.num_edges == 0
