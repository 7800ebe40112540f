"""Nibble codes — Ligra+'s other byte-family code (Shun et al., DCC'15).

Like the byte code used by :class:`~repro.compression.delta.DeltaCodec`
but at 4-bit granularity: each nibble carries 3 data bits plus a
continuation bit, so tiny deltas (0-7) cost half a byte.  On strongly
clustered neighbour sets (GOrder/DFS-ordered graphs) this beats byte
codes; on anything else the finer granularity is overhead — which is why
systems keep both and pick per structure.

Stream layout mirrors the delta codec: zigzagged first element, then
zigzagged wrapped deltas, each as a continuation-coded nibble sequence.
An odd nibble count is padded to a whole byte with the terminator nibble
``1000`` (continuation set, no successor) — unambiguous, because no
value's encoding can end the stream mid-continuation.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import Codec, as_unsigned_bits, from_unsigned_bits
from repro.compression.delta import (
    _U64_MASK,
    _unzigzag_int,
    _wrapped_delta,
    _zigzag_int,
)
from repro.utils.bitstream import BitReader, BitWriter


def _write_nibbles(writer: BitWriter, value: int) -> None:
    """Continuation-coded nibbles, most-significant group first."""
    groups = [value & 0x7]
    value >>= 3
    while value:
        groups.append(value & 0x7)
        value >>= 3
    for i, group in enumerate(reversed(groups)):
        more = 1 if i < len(groups) - 1 else 0
        writer.write_bits((more << 3) | group, 4)


def _read_nibbles(reader: BitReader) -> int:
    value = 0
    while True:
        nibble = reader.read_bits(4)
        value = (value << 3) | (nibble & 0x7)
        if not nibble & 0x8:
            return value


class NibbleCodec(Codec):
    """Delta + continuation-coded nibbles over element bit patterns."""

    name = "nibble"

    def encode(self, values: np.ndarray) -> bytes:
        bits = as_unsigned_bits(values).astype(np.uint64)
        if bits.size == 0:
            return b""
        writer = BitWriter()
        prev = int(bits[0])
        _write_nibbles(writer, _zigzag_int(prev))
        for current in bits[1:].tolist():
            _write_nibbles(writer,
                           _zigzag_int(_wrapped_delta(current, prev)))
            prev = current
        if len(writer) % 8:
            writer.write_bits(0b1000, 4)  # terminator pad
        return writer.getvalue()

    def decode(self, data: bytes, count: int, dtype: np.dtype) -> np.ndarray:
        dtype = np.dtype(dtype)
        if count == 0:
            return np.empty(0, dtype=dtype)
        reader = BitReader(data)
        out = np.empty(count, dtype=np.uint64)
        prev = _unzigzag_int(_read_nibbles(reader))
        out[0] = prev
        for i in range(1, count):
            prev = (prev + _unzigzag_int(_read_nibbles(reader))) \
                & _U64_MASK
            out[i] = prev
        return from_unsigned_bits(out.astype(np.dtype(f"u{dtype.itemsize}")),
                                  dtype)

    def decode_stream(self, data: bytes, dtype: np.dtype) -> np.ndarray:
        """Decode until the stream ends (or its terminator pad)."""
        dtype = np.dtype(dtype)
        reader = BitReader(data)
        values = []
        prev = 0
        first = True
        while reader.bits_remaining >= 4:
            if reader.bits_remaining == 4 and \
                    reader.peek_bits(4) == 0b1000:
                break  # terminator pad
            raw = _read_nibbles(reader)
            if first:
                prev = _unzigzag_int(raw)
                first = False
            else:
                prev = (prev + _unzigzag_int(raw)) & _U64_MASK
            values.append(prev)
        out = np.array(values, dtype=np.uint64)
        return from_unsigned_bits(out.astype(np.dtype(f"u{dtype.itemsize}")),
                                  dtype)
