"""Frame-of-Reference (FOR) bit packing.

FOR compresses a chunk by storing one base (the chunk minimum) plus every
element's offset from it at a fixed bit width — decode is a branchless
shift-and-add, which is why columnar systems and hardware engines favour
it.  It shines exactly where SpZip's data lives: clustered ids (a
neighbour set after preprocessing, a bin's destination slice) become a
base plus a few bits per element.

Chunk layout (self-delimiting, so the decompression unit can walk it):

=========  =======================================
field      encoding
=========  =======================================
count      1 byte (chunk length - 1; chunks <= 256)
width      1 byte (bits per packed offset, 0-64)
base       varint (minimum element)
payload    ceil(count * width / 8) bytes, LSB-first
=========  =======================================
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import Codec, as_unsigned_bits, from_unsigned_bits
from repro.utils.varint import decode_varint, encode_varint

#: Default chunk length; 256 is the header's count limit.
FOR_CHUNK = 64


def _pack_bits(offsets: np.ndarray, width: int) -> bytes:
    """LSB-first fixed-width packing of non-negative ints."""
    if width == 0:
        return b""
    total_bits = offsets.size * width
    out = bytearray((total_bits + 7) // 8)
    bitpos = 0
    for value in offsets.tolist():
        for b in range(width):
            if (value >> b) & 1:
                out[bitpos >> 3] |= 1 << (bitpos & 7)
            bitpos += 1
    return bytes(out)


def _unpack_bits(data: bytes, count: int, width: int) -> np.ndarray:
    out = np.zeros(count, dtype=np.uint64)
    if width == 0:
        return out
    bitpos = 0
    for i in range(count):
        value = 0
        for b in range(width):
            if data[bitpos >> 3] & (1 << (bitpos & 7)):
                value |= 1 << b
            bitpos += 1
        out[i] = value
    return out


class ForCodec(Codec):
    """Chunked frame-of-reference codec over element bit patterns."""

    name = "for"

    def __init__(self, chunk_elems: int = FOR_CHUNK) -> None:
        if not 1 <= chunk_elems <= 256:
            raise ValueError("FOR chunks must be 1..256 elements")
        self.chunk_elems = chunk_elems

    def encode(self, values: np.ndarray) -> bytes:
        bits = as_unsigned_bits(values).astype(np.uint64)
        out = bytearray()
        for start in range(0, bits.size, self.chunk_elems):
            chunk = bits[start:start + self.chunk_elems]
            base = int(chunk.min())
            offsets = chunk - np.uint64(base)
            top = int(offsets.max())
            width = top.bit_length()
            out.append(chunk.size - 1)
            out.append(width)
            out += encode_varint(base)
            out += _pack_bits(offsets, width)
        return bytes(out)

    def decode(self, data: bytes, count: int, dtype: np.dtype) -> np.ndarray:
        dtype = np.dtype(dtype)
        decoded = self.decode_stream(data, np.uint64)
        if decoded.size < count:
            raise ValueError("FOR stream shorter than expected")
        narrow = decoded[:count].astype(np.dtype(f"u{dtype.itemsize}"))
        return from_unsigned_bits(narrow, dtype)

    def decode_stream(self, data: bytes, dtype: np.dtype) -> np.ndarray:
        dtype = np.dtype(dtype)
        pieces = []
        offset = 0
        while offset < len(data):
            count = data[offset] + 1
            width = data[offset + 1]
            base, offset = decode_varint(data, offset + 2)
            nbytes = (count * width + 7) // 8
            offsets = _unpack_bits(data[offset:offset + nbytes], count,
                                   width)
            offset += nbytes
            pieces.append(offsets + np.uint64(base))
        out = np.concatenate(pieces) if pieces else np.empty(0, np.uint64)
        return from_unsigned_bits(out.astype(np.dtype(f"u{dtype.itemsize}")),
                                  dtype)
