"""Run-length encoding.

The DCL supports multiple compression formats per system (Sec II-A names
run-length encoding among them).  RLE shines on streams with repeated
values — e.g. Connected Components labels late in convergence, or dense
frontier bitmaps — and rounds out the codec menu.

Layout: a sequence of ``(varint run_length, varint value_bits)`` pairs.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import Codec, as_unsigned_bits, from_unsigned_bits
from repro.utils.varint import decode_varint, encode_varint


def _runs(bits: np.ndarray):
    """Yield (run_length, value) pairs over ``bits``."""
    if bits.size == 0:
        return
    change = np.flatnonzero(np.diff(bits)) + 1
    starts = np.concatenate(([0], change))
    ends = np.concatenate((change, [bits.size]))
    for start, end in zip(starts.tolist(), ends.tolist()):
        yield end - start, int(bits[start])


class RleCodec(Codec):
    """Varint run-length codec over element bit patterns."""

    name = "rle"

    def encode(self, values: np.ndarray) -> bytes:
        bits = as_unsigned_bits(values).astype(np.uint64)
        out = bytearray()
        for length, value in _runs(bits):
            out += encode_varint(length)
            out += encode_varint(value)
        return bytes(out)

    def decode(self, data: bytes, count: int, dtype: np.dtype) -> np.ndarray:
        dtype = np.dtype(dtype)
        out = np.empty(count, dtype=np.uint64)
        offset = 0
        filled = 0
        while filled < count:
            length, offset = decode_varint(data, offset)
            value, offset = decode_varint(data, offset)
            out[filled:filled + length] = value
            filled += length
        if filled != count:
            raise ValueError("RLE runs overran element count")
        return from_unsigned_bits(out.astype(np.dtype(f"u{dtype.itemsize}")),
                                  dtype)

    def decode_stream(self, data: bytes, dtype: np.dtype) -> np.ndarray:
        """Decode runs until the payload is exhausted."""
        dtype = np.dtype(dtype)
        pieces = []
        offset = 0
        while offset < len(data):
            length, offset = decode_varint(data, offset)
            value, offset = decode_varint(data, offset)
            pieces.append(np.full(length, value, dtype=np.uint64))
        out = np.concatenate(pieces) if pieces else np.empty(0, np.uint64)
        return from_unsigned_bits(out.astype(np.dtype(f"u{dtype.itemsize}")),
                                  dtype)
