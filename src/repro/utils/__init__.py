"""Shared low-level utilities: bit/byte packing, RNG, means."""

from repro.utils.bitstream import (
    BitReader,
    BitWriter,
    zigzag_decode,
    zigzag_encode,
)
from repro.utils.rng import make_rng
from repro.utils.stats import arithmetic_mean, geometric_mean
from repro.utils.varint import (
    decode_varint,
    decode_varint_stream,
    encode_varint,
    encode_varint_stream,
)

__all__ = [
    "BitReader",
    "BitWriter",
    "arithmetic_mean",
    "decode_varint",
    "decode_varint_stream",
    "encode_varint",
    "encode_varint_stream",
    "geometric_mean",
    "make_rng",
    "zigzag_decode",
    "zigzag_encode",
]
