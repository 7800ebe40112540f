"""Shared low-level utilities: bit/byte packing, RNG, means."""

from repro.utils.bitstream import BitReader, BitWriter
from repro.utils.rng import make_rng
from repro.utils.stats import arithmetic_mean, geometric_mean
from repro.utils.varint import decode_varint, encode_varint

__all__ = [
    "BitReader",
    "BitWriter",
    "arithmetic_mean",
    "decode_varint",
    "encode_varint",
    "geometric_mean",
    "make_rng",
]
