"""Base-Delta-Immediate compression (Pekhimenko et al., PACT 2012).

BDI compresses a fixed-size cache line by storing one base value plus
narrow per-word deltas.  SpZip itself does not use BDI; it is the line
codec of the *compressed memory hierarchy* baseline (paper Sec V-D), which
pairs a VSC compressed LLC with BDI and LCP compressed main memory.

We implement the standard encoder menu over a 64-byte line:

* zeros — the whole line is zero (1-byte tag);
* repeat — the line is one 8-byte value repeated (tag + 8);
* base8-delta{1,2,4}, base4-delta{1,2}, base2-delta1 — tag + base +
  packed deltas;
* raw — tag + 64 bytes.

The encoder picks the smallest applicable size, exactly like the
hardware's parallel compressor trees.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.compression.base import Codec, as_unsigned_bits, from_unsigned_bits

LINE_BYTES = 64

_TAG_ZEROS = 0
_TAG_REPEAT = 1
_TAG_RAW = 7
# (tag, base_bytes, delta_bytes)
_BDI_MODES: List[Tuple[int, int, int]] = [
    (2, 8, 1),
    (3, 8, 2),
    (4, 8, 4),
    (5, 4, 1),
    (6, 4, 2),
    (8, 2, 1),
]
_MODE_BY_TAG = {tag: (base, delta) for tag, base, delta in _BDI_MODES}


def _fits_signed(deltas: np.ndarray, delta_bytes: int) -> bool:
    bound = 1 << (8 * delta_bytes - 1)
    return bool((deltas >= -bound).all() and (deltas < bound).all())


def bdi_line_sizes(data: bytes) -> np.ndarray:
    """Compressed BDI sizes of every 64-byte line of ``data``, at once.

    Vectorized across lines: each encoder-menu mode is evaluated for
    all lines with one reshape + reduction, instead of a per-line
    :func:`bdi_encode_line` walk (``tests/test_pricing_ratios.py`` holds
    the two equal, line for line).  A trailing partial
    line is zero-padded to a full line — a line-granular memory stores
    (and compresses) the whole line regardless of how much of it the
    array occupies.
    """
    if len(data) == 0:
        return np.zeros(0, dtype=np.int64)
    pad = (-len(data)) % LINE_BYTES
    buf = np.frombuffer(data, dtype=np.uint8)
    if pad:
        buf = np.concatenate([buf, np.zeros(pad, dtype=np.uint8)])
    lines = np.ascontiguousarray(buf).reshape(-1, LINE_BYTES)
    num_lines = lines.shape[0]
    sizes = np.full(num_lines, 1 + LINE_BYTES, dtype=np.int64)
    for _tag, base_bytes, delta_bytes in _BDI_MODES:
        words = lines.view(np.dtype(f"u{base_bytes}"))
        if base_bytes == 8:
            # 64-bit wrapped deltas, same as the encoder.
            deltas = (words - words[:, :1]).view(np.int64)
        else:
            deltas = words.astype(np.int64) - words[:, :1].astype(np.int64)
        bound = 1 << (8 * delta_bytes - 1)
        fits = ((deltas >= -bound) & (deltas < bound)).all(axis=1)
        size = 1 + base_bytes + delta_bytes * words.shape[1]
        np.minimum(sizes, size, out=sizes, where=fits)
    # Repeat/zeros tags beat every delta mode (9 and 1 vs >= 17), so
    # applying them last reproduces the encoder's early returns exactly.
    words8 = lines.view(np.uint64)
    repeat = (words8 == words8[:, :1]).all(axis=1)
    sizes[repeat] = 1 + 8
    sizes[~words8.any(axis=1)] = 1
    return sizes


def bdi_encode_line(line: bytes) -> bytes:
    """Encode one 64-byte line; decodable by :func:`bdi_decode_line`."""
    if len(line) != LINE_BYTES:
        raise ValueError("BDI operates on 64-byte lines")
    words8 = np.frombuffer(line, dtype=np.uint64)
    if not words8.any():
        return bytes([_TAG_ZEROS])
    if (words8 == words8[0]).all():
        return bytes([_TAG_REPEAT]) + line[:8]
    best: bytes = bytes([_TAG_RAW]) + line
    for tag, base_bytes, delta_bytes in _BDI_MODES:
        words = np.frombuffer(line, dtype=np.dtype(f"u{base_bytes}"))
        if base_bytes == 8:
            deltas = (words - words[0]).view(np.int64)
        else:
            deltas = words.astype(np.int64) - np.int64(words[0])
        if not _fits_signed(deltas, delta_bytes):
            continue
        packed = deltas.astype(np.dtype(f"i{delta_bytes}")).tobytes()
        candidate = bytes([tag]) + line[:base_bytes] + packed
        if len(candidate) < len(best):
            best = candidate
    return best


def bdi_decode_line(data: bytes) -> bytes:
    """Inverse of :func:`bdi_encode_line`; returns the 64-byte line."""
    tag = data[0]
    if tag == _TAG_ZEROS:
        return bytes(LINE_BYTES)
    if tag == _TAG_REPEAT:
        return data[1:9] * (LINE_BYTES // 8)
    if tag == _TAG_RAW:
        return data[1:1 + LINE_BYTES]
    base_bytes, delta_bytes = _MODE_BY_TAG[tag]
    nwords = LINE_BYTES // base_bytes
    base = np.frombuffer(data[1:1 + base_bytes],
                         dtype=np.dtype(f"u{base_bytes}"))[0]
    deltas = np.frombuffer(
        data[1 + base_bytes:1 + base_bytes + delta_bytes * nwords],
        dtype=np.dtype(f"i{delta_bytes}"),
    )
    words = (base + deltas.astype(np.dtype(f"u{base_bytes}"))).astype(
        np.dtype(f"u{base_bytes}")
    )
    return words.tobytes()


class BdiCodec(Codec):
    """BDI applied line-by-line to an element stream (64-byte granularity).

    The stream is split into 64-byte lines (the last line zero-padded);
    each line is independently BDI-coded with a 1-byte size prefix so the
    decoder can walk the stream.
    """

    name = "bdi"

    def encode(self, values: np.ndarray) -> bytes:
        raw = as_unsigned_bits(values).tobytes()
        out = bytearray()
        for start in range(0, len(raw), LINE_BYTES):
            line = raw[start:start + LINE_BYTES]
            if len(line) < LINE_BYTES:
                line = line + bytes(LINE_BYTES - len(line))
            coded = bdi_encode_line(line)
            out.append(len(coded))
            out += coded
        return bytes(out)

    def decode(self, data: bytes, count: int, dtype: np.dtype) -> np.ndarray:
        dtype = np.dtype(dtype)
        need = count * dtype.itemsize
        raw = bytearray()
        offset = 0
        while len(raw) < need:
            size = data[offset]
            offset += 1
            raw += bdi_decode_line(data[offset:offset + size])
            offset += size
        bits = np.frombuffer(bytes(raw[:need]),
                             dtype=np.dtype(f"u{dtype.itemsize}"))
        return from_unsigned_bits(bits.copy(), dtype)
