"""Unit tests for the length-prefixed byte-code varint."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils import decode_varint, encode_varint
from repro.utils.varint import VARINT_MAX


class TestVarintSizes:
    @pytest.mark.parametrize("value,size", [
        (0, 1), (63, 1),
        (64, 2), (2 ** 14 - 1, 2),
        (2 ** 14, 4), (2 ** 30 - 1, 4),
        (2 ** 30, 9), (VARINT_MAX, 9),
    ])
    def test_boundary_sizes(self, value, size):
        assert len(encode_varint(value)) == size

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            encode_varint(-1)

    def test_too_large_rejected(self):
        with pytest.raises(ValueError):
            encode_varint(VARINT_MAX + 1)


class TestVarintRoundtrip:
    @given(st.integers(0, VARINT_MAX))
    def test_single_roundtrip(self, value):
        data = encode_varint(value)
        decoded, offset = decode_varint(data)
        assert decoded == value
        assert offset == len(data)

    def test_self_delimiting_with_offset(self):
        data = encode_varint(5) + encode_varint(1 << 20) + encode_varint(7)
        v1, off = decode_varint(data, 0)
        v2, off = decode_varint(data, off)
        v3, off = decode_varint(data, off)
        assert (v1, v2, v3) == (5, 1 << 20, 7)
        assert off == len(data)

    def test_64bit_zigzag_range_fits(self):
        # The delta codec needs up to 65-bit zigzag values.
        value = (1 << 64) + 5
        assert value <= VARINT_MAX
        decoded, _ = decode_varint(encode_varint(value))
        assert decoded == value
