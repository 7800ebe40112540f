"""Tests for the frame-of-reference and nibble codecs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import (
    DeltaCodec,
    ForCodec,
    NibbleCodec,
    available_codecs,
    make_codec,
)
from tests.oracles.codecs import nibble_size_bits

uint32_arrays = st.lists(
    st.integers(0, 2 ** 32 - 1), min_size=0, max_size=150
).map(lambda xs: np.asarray(xs, dtype=np.uint32))


@pytest.mark.parametrize("codec_cls", [ForCodec, NibbleCodec])
class TestRoundtrips:
    def test_empty(self, codec_cls):
        codec = codec_cls()
        out = codec.decode(codec.encode(np.empty(0, np.uint32)), 0,
                           np.uint32)
        assert out.size == 0

    def test_basic(self, codec_cls):
        codec = codec_cls()
        x = np.array([100, 105, 103, 200, 90], dtype=np.uint32)
        assert np.array_equal(codec.decode(codec.encode(x), 5, np.uint32),
                              x)

    def test_extremes_u64(self, codec_cls):
        codec = codec_cls()
        x = np.array([0, 2 ** 64 - 1, 2 ** 63, 1], dtype=np.uint64)
        assert np.array_equal(codec.decode(codec.encode(x), 4, np.uint64),
                              x)

    def test_decode_stream_matches_decode(self, codec_cls):
        codec = codec_cls()
        rng = np.random.default_rng(1)
        x = np.sort(rng.integers(0, 10 ** 6, 97)).astype(np.uint32)
        enc = codec.encode(x)
        assert np.array_equal(codec.decode_stream(enc, np.uint32), x)

    @settings(max_examples=30, deadline=None)
    @given(data=uint32_arrays)
    def test_property_roundtrip(self, codec_cls, data):
        codec = codec_cls()
        enc = codec.encode(data)
        assert np.array_equal(codec.decode(enc, data.size, np.uint32),
                              data)
        assert codec.encoded_size(data) == len(enc)
        assert np.array_equal(codec.decode_stream(enc, np.uint32), data)


class TestForCodec:
    def test_clustered_values_pack_tightly(self):
        # 64 values within a 255 window: header + 64 bytes.
        x = (10 ** 6 + np.arange(64, dtype=np.uint64) * 4).astype(
            np.uint32)
        size = ForCodec().encoded_size(x)
        assert size < 0.4 * 4 * x.size

    def test_constant_chunk_width_zero(self):
        x = np.full(64, 12345, dtype=np.uint32)
        size = ForCodec().encoded_size(x)
        assert size <= 2 + 4  # header + varint base, no payload

    def test_chunk_bounds_validated(self):
        with pytest.raises(ValueError):
            ForCodec(chunk_elems=0)
        with pytest.raises(ValueError):
            ForCodec(chunk_elems=257)

    def test_custom_chunks_roundtrip(self):
        codec = ForCodec(chunk_elems=5)
        x = np.arange(23, dtype=np.uint32) * 100
        assert np.array_equal(codec.decode(codec.encode(x), 23,
                                           np.uint32), x)


class TestNibbleCodec:
    def test_small_deltas_half_byte(self):
        x = np.arange(1000, dtype=np.uint32)  # deltas of 1 -> zigzag 2
        size = NibbleCodec().encoded_size(x)
        assert size <= x.size // 2 + 8

    def test_beats_byte_code_on_tiny_deltas(self):
        x = np.cumsum(np.ones(500, dtype=np.uint64)).astype(np.uint32)
        assert NibbleCodec().encoded_size(x) < \
            DeltaCodec().encoded_size(x)

    def test_loses_to_byte_code_on_large_deltas(self):
        rng = np.random.default_rng(2)
        x = np.sort(rng.integers(0, 2 ** 30, 300).astype(np.uint32))
        assert NibbleCodec().encoded_size(x) >= \
            DeltaCodec().encoded_size(x) * 0.9

    def test_nibble_size_bits(self):
        assert nibble_size_bits(0) == 4
        assert nibble_size_bits(7) == 4
        assert nibble_size_bits(8) == 8
        assert nibble_size_bits(64) == 12
        # The encoder stores a lone value as its zigzag, 2 * value, and
        # pads the nibble stream to whole bytes.
        for value in (0, 3, 4, 32, 1 << 20):
            encoded = NibbleCodec().encode(np.array([value], dtype=np.uint32))
            assert len(encoded) == (nibble_size_bits(2 * value) + 7) // 8

    def test_terminator_pad_unambiguous(self):
        # One tiny value -> single nibble + terminator pad.
        x = np.array([1], dtype=np.uint32)
        codec = NibbleCodec()
        enc = codec.encode(x)
        assert len(enc) == 1
        assert np.array_equal(codec.decode_stream(enc, np.uint32), x)


class TestRegistry:
    def test_new_codecs_registered(self):
        names = set(available_codecs())
        assert {"for", "nibble"} <= names
        assert make_codec("for").name == "for"
        assert make_codec("nibble").name == "nibble"
