"""Length-prefixed byte codes for unsigned integers.

This is the "byte code" the paper's delta-encoding implementation uses
(Sec III-B): each value is emitted as the smallest encoding that holds it,
with a 2-bit length prefix.  The prefix lives in the top two bits of the
first byte and selects how many payload bytes follow (0, 1, 3, or 8), so
encodings are 1, 2, 4, or 9 bytes and cover the full 64-bit range plus the
extra zigzag bit:

===  ============  =============
tag  total bytes   payload bits
===  ============  =============
0    1             6
1    2             14
2    4             30
3    9             70
===  ============  =============

The format is self-delimiting, so a stream of varints can be decoded
without out-of-band lengths — exactly what the hardware decompression unit
needs.
"""

from __future__ import annotations

from typing import Tuple

_PAYLOAD_BYTES = (0, 1, 3, 8)  # bytes after the first, per tag
_MAX_FOR_TAG = tuple((1 << (6 + 8 * extra)) - 1 for extra in _PAYLOAD_BYTES)

#: Largest value a byte-code varint can hold (70 bits).
VARINT_MAX = _MAX_FOR_TAG[-1]


def encode_varint(value: int) -> bytes:
    """Encode a non-negative integer as a length-prefixed byte code."""
    if value < 0:
        raise ValueError("varint values must be non-negative")
    for tag, limit in enumerate(_MAX_FOR_TAG):
        if value <= limit:
            extra = _PAYLOAD_BYTES[tag]
            out = bytearray(1 + extra)
            out[0] = (tag << 6) | (value >> (8 * extra))
            for i in range(extra):
                out[1 + i] = (value >> (8 * (extra - 1 - i))) & 0xFF
            return bytes(out)
    raise ValueError(f"value {value} too large for 70-bit varint")


def decode_varint(data: bytes, offset: int = 0) -> Tuple[int, int]:
    """Decode one varint at ``offset``; returns ``(value, next_offset)``."""
    first = data[offset]
    tag = first >> 6
    extra = _PAYLOAD_BYTES[tag]
    value = first & 0x3F
    for i in range(extra):
        value = (value << 8) | data[offset + 1 + i]
    return value, offset + 1 + extra
