"""Delta encoding with length-prefixed byte codes (paper Sec III-B).

The paper's delta implementation "simply subtracts the previous and current
inputs, and emits an N-byte output if their delta (plus a small length
prefix) fits within N bytes" — the Ligra+ byte code.  It is the codec of
choice for short streams such as individual neighbour sets, where BPC's
32-element chunks cannot amortize.

Stream layout: the first element's bit pattern is stored as a zigzagged
varint; every following element is stored as the zigzag of its *wrapped*
64-bit delta from the predecessor (the minimal signed representative of
``(current - prev) mod 2**64``).  Wrapped semantics let the pricer's
vectorized size estimator (an ``int64`` diff, see
``runtime/traffic.py``) agree with the encoder on every delta.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import Codec, as_unsigned_bits, from_unsigned_bits
from repro.utils.varint import decode_varint, encode_varint

_U64_MASK = (1 << 64) - 1


def _zigzag_int(value: int) -> int:
    """Zigzag for a signed python int: 0,-1,1,-2,2 -> 0,1,2,3,4."""
    return value << 1 if value >= 0 else ((-value) << 1) - 1


def _unzigzag_int(value: int) -> int:
    return value >> 1 if (value & 1) == 0 else -((value + 1) >> 1)


def _wrapped_delta(current: int, prev: int) -> int:
    """Minimal signed representative of ``(current - prev) mod 2**64``."""
    delta = (current - prev) & _U64_MASK
    if delta >= 1 << 63:
        delta -= 1 << 64
    return delta


def _varint_sizes(values: np.ndarray) -> np.ndarray:
    """Vectorized byte-code size of each (non-negative uint64) value."""
    sizes = np.full(values.shape, 9, dtype=np.int64)
    sizes[values < (1 << 30)] = 4
    sizes[values < (1 << 14)] = 2
    sizes[values < (1 << 6)] = 1
    return sizes


def _zigzag_u64(deltas_i64: np.ndarray) -> np.ndarray:
    """Vectorized zigzag of int64 deltas into uint64."""
    deltas_i64 = deltas_i64.astype(np.int64, copy=False)
    return ((deltas_i64 << 1) ^ (deltas_i64 >> 63)).view(np.uint64)


class DeltaCodec(Codec):
    """Byte-code delta codec over element bit patterns."""

    name = "delta"

    def encode(self, values: np.ndarray) -> bytes:
        bits = as_unsigned_bits(values).astype(np.uint64)
        if bits.size == 0:
            return b""
        first = int(bits[0])
        out = bytearray(encode_varint(_zigzag_int(first)))
        prev = first
        for current in bits[1:].tolist():
            out += encode_varint(_zigzag_int(_wrapped_delta(current, prev)))
            prev = current
        return bytes(out)

    def decode(self, data: bytes, count: int, dtype: np.dtype) -> np.ndarray:
        dtype = np.dtype(dtype)
        if count == 0:
            return np.empty(0, dtype=dtype)
        values = np.empty(count, dtype=np.uint64)
        raw, offset = decode_varint(data, 0)
        prev = _unzigzag_int(raw)
        values[0] = prev
        for i in range(1, count):
            raw, offset = decode_varint(data, offset)
            prev = (prev + _unzigzag_int(raw)) & _U64_MASK
            values[i] = prev
        narrow = values.astype(np.dtype(f"u{dtype.itemsize}"))
        return from_unsigned_bits(narrow, dtype)

    def decode_stream(self, data: bytes, dtype: np.dtype) -> np.ndarray:
        """Decode back-to-back varints until the payload is exhausted."""
        dtype = np.dtype(dtype)
        values = []
        offset = 0
        prev = 0
        first = True
        while offset < len(data):
            raw, offset = decode_varint(data, offset)
            if first:
                prev = _unzigzag_int(raw)
                first = False
            else:
                prev = (prev + _unzigzag_int(raw)) & _U64_MASK
            values.append(prev)
        out = np.array(values, dtype=np.uint64)
        narrow = out.astype(np.dtype(f"u{dtype.itemsize}"))
        return from_unsigned_bits(narrow, dtype)
