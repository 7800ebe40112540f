"""Unit tests for bit-granular readers/writers and zigzag mapping."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.compression.delta import _unzigzag_int, _zigzag_int
from repro.utils import BitReader, BitWriter


class TestBitWriter:
    def test_empty_writer_has_no_bits(self):
        writer = BitWriter()
        assert len(writer) == 0
        assert writer.getvalue() == b""

    def test_single_bit_sets_msb(self):
        writer = BitWriter()
        writer.write_bit(1)
        assert writer.getvalue() == b"\x80"
        assert len(writer) == 1

    def test_eight_bits_fill_one_byte(self):
        writer = BitWriter()
        for bit in [1, 0, 1, 0, 1, 0, 1, 0]:
            writer.write_bit(bit)
        assert writer.getvalue() == b"\xaa"

    def test_write_bits_msb_first(self):
        writer = BitWriter()
        writer.write_bits(0b101, 3)
        assert writer.getvalue() == b"\xa0"

    def test_write_bits_rejects_oversize_value(self):
        writer = BitWriter()
        with pytest.raises(ValueError):
            writer.write_bits(8, 3)

    def test_write_bits_rejects_negative_width(self):
        with pytest.raises(ValueError):
            BitWriter().write_bits(0, -1)

    def test_align_byte_pads_with_zeros(self):
        writer = BitWriter()
        writer.write_bit(1)
        writer.align_byte()
        writer.write_bit(1)
        assert writer.getvalue() == b"\x80\x80"


class TestBitReader:
    def test_roundtrip_bits(self):
        writer = BitWriter()
        writer.write_bits(0x5A5, 12)
        reader = BitReader(writer.getvalue())
        assert reader.read_bits(12) == 0x5A5

    def test_eof_raises(self):
        reader = BitReader(b"")
        with pytest.raises(EOFError):
            reader.read_bit()

    def test_bits_remaining(self):
        reader = BitReader(b"\xff")
        assert reader.bits_remaining == 8
        reader.read_bits(3)
        assert reader.bits_remaining == 5

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=200))
    def test_bit_sequence_roundtrip(self, bits):
        writer = BitWriter()
        for bit in bits:
            writer.write_bit(bit)
        reader = BitReader(writer.getvalue())
        assert [reader.read_bit() for _ in range(len(bits))] == bits


class TestZigzag:
    """The zigzag map the delta-family codecs store values with."""

    @pytest.mark.parametrize("value,expected", [
        (0, 0), (-1, 1), (1, 2), (-2, 3), (2, 4),
    ])
    def test_known_mappings(self, value, expected):
        assert _zigzag_int(value) == expected

    @given(st.integers(-(2 ** 62), 2 ** 62))
    def test_roundtrip(self, value):
        assert _unzigzag_int(_zigzag_int(value)) == value
